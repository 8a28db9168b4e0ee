package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler reads the process's resident set size every interval from
// /proc/self/statm while the measured phase runs.
type rssSampler struct {
	once    sync.Once
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []float64 // MB
}

func startRSSSampler(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.mu.Lock()
				s.samples = append(s.samples, mb)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples. It
// may be called more than once.
func (s *rssSampler) finish() []float64 {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.samples
}

// stealSeconds is the CPU time the host took from this machine's CPUs
// (the steal column of /proc/stat), or 0 where it cannot be read. The
// log reports it for the measured phase: steal slows every op without
// any change in the program.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// residentMB is the current resident set size in MB.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
