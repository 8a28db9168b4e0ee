package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain starts os/signal's watcher goroutine, which lives as long as
// the process once a run has asked for signals, before any test counts
// goroutines.
func TestMain(m *testing.M) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGTERM)
	signal.Stop(c)
	os.Exit(m.Run())
}

// runTiny runs one workload at tiny size and returns its exit code, the
// parsed result line and the log. adjust, if not nil, changes the parsed
// configuration before the run.
func runTiny(t *testing.T, workload, trace string, adjust func(*config)) (int, result, string) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"--tiny", "--workdir", t.TempDir()}
	var out, log bytes.Buffer
	cfg, err := parseFlags(args, &log)
	if err != nil {
		t.Fatal(err)
	}
	if adjust != nil {
		adjust(&cfg)
	}
	code := runAndPrint(cfg, &out, &log)
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last stdout line %q: %v\nlog:\n%s", workload, trace, lines[len(lines)-1], err, log.String())
	}
	return code, res, log.String()
}

// checkListenersClosed dials every loopback address the log says a
// daemon listened on; each must refuse the connection.
func checkListenersClosed(t *testing.T, log string) {
	t.Helper()
	addrs := regexp.MustCompile(`daemon listening on (127\.0\.0\.1:\d+)`).FindAllStringSubmatch(log, -1)
	if len(addrs) == 0 {
		t.Fatalf("log names no daemon address:\n%s", log)
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a[1], time.Second); err == nil {
			c.Close()
			t.Errorf("daemon listener %s is still open after the run", a[1])
		}
	}
}

// checkGoroutines waits briefly for the run's goroutines to end and
// fails if more remain than before it.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left running (had %d before the run):\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				before := runtime.NumGoroutine()
				code, res, log := runTiny(t, wl, trace, nil)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nlog:\n%s", code, res, log)
				}
				want := []string{"setup_s", "ops_per_s", "op_p50_s", "cpu_per_op_s", "peak_rss_mb"}
				if trace == "1" {
					want = want[:0]
					for _, d := range perLayerMetrics {
						want = append(want, d.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("metric %s missing", n)
					}
				}
				if trace == "0" {
					for n, v := range res.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, v.Value)
						}
					}
				}
				if wl == "daemon-mix" {
					checkListenersClosed(t, log)
				}
				checkGoroutines(t, before)
			})
		}
	}
}

// failingDaemon is daemon-mix with one output check forced to fail.
type failingDaemon struct{ workload }

func (f failingDaemon) finish(ctx context.Context) error {
	err := f.workload.finish(ctx)
	f.workload.(*daemonMix).e.m.wrong("forced check failure")
	return err
}

func TestFailedCheckReleasesDaemon(t *testing.T) {
	workloads["daemon-mix-failing"] = func(e *env) workload { return failingDaemon{newDaemonMix(e)} }
	defer delete(workloads, "daemon-mix-failing")
	before := runtime.NumGoroutine()
	code, res, log := runTiny(t, "daemon-mix-failing", "0", nil)
	if code == 0 || res.Correct {
		t.Fatalf("a failed check must give a non-zero exit and correct=false; got exit %d, %+v", code, res)
	}
	checkListenersClosed(t, log)
	checkGoroutines(t, before)
}

func TestDeadlineReleasesDaemon(t *testing.T) {
	before := runtime.NumGoroutine()
	start := time.Now()
	code, res, log := runTiny(t, "daemon-mix", "0", func(c *config) {
		c.Seconds, c.Deadline = 60, 1500*time.Millisecond
	})
	if took := time.Since(start); took > 12*time.Second {
		t.Errorf("run took %v past a 1.5s deadline", took)
	}
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a run stopped at its deadline must exit non-zero with failed ops; got exit %d, %+v\nlog:\n%s", code, res, log)
	}
	checkListenersClosed(t, log)
	checkGoroutines(t, before)
}

// TestBenchmarkJSON keeps BENCHMARK.json's per-layer list in step with
// what the traced run prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join([]string{"table-sweep", "daemon-mix", "ideal-attack"}, ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if got, want := strings.Join(e2e, ","), "setup_s,ops_per_s,op_p50_s,cpu_per_op_s,peak_rss_mb"; got != want {
		t.Errorf("end-to-end metrics %s, want %s", got, want)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		p := spec.PerLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, p, d)
		}
	}
}
