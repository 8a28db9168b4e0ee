// Command splitbench is the repository's performance benchmark. It
// drives three workloads through the public entry points of the
// SplitLock flow, checks every output, and prints one JSON line of
// metrics as the last line of its standard output:
//
//	splitbench --workload table-sweep|daemon-mix|ideal-attack \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the line holds the end-to-end metrics, measured with
// tracing off; with --trace 1 it holds the per-layer metrics of a
// separate traced run. Each workload runs in its own process; the daemon
// of daemon-mix runs in-process, so the benchmark starts no child
// process. README.md describes the workloads, metrics and checks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Deadline bounds the whole run (the package test shortens it). Ops
	// still running when it passes are counted as failed and the run
	// exits non-zero.
	Deadline time.Duration
	// WorkDir holds the daemon state directory and the span files.
	WorkDir string
	// Tiny shrinks every input so the whole run takes seconds (used by
	// the package test).
	Tiny bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{Deadline: deadline}
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: drives the flow seeds and the choice of specs")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "measured-phase length; whole rounds run until it has passed")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&cfg.WorkDir, "workdir", ".bench_build", "directory for daemon state and span files")
	fs.BoolVar(&cfg.Tiny, "tiny", false, "tiny inputs (smoke test)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.Workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.Seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.Trace = trace == 1
	return cfg, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "splitbench:", err)
		return 2
	}
	return runAndPrint(cfg, stdout, stderr)
}

// runAndPrint runs the benchmark, prints its result line and returns
// the exit code.
func runAndPrint(cfg config, stdout, stderr io.Writer) int {
	res, err := run(cfg, stderr)
	if res != nil {
		line, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(stderr, "splitbench:", merr)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if err != nil {
		fmt.Fprintln(stderr, "splitbench:", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. A fresh value serves each set-up.
type workload interface {
	// setup generates the inputs from the seed, starts what the
	// workload needs and runs one warm-up op.
	setup(ctx context.Context) error
	// round runs one whole round of ops. Every round of a workload is
	// made of the same operations; only their seeds differ.
	round(ctx context.Context, r int) error
	// finish checks what could not be checked op by op and stores the
	// per-layer metrics. It runs after the measured phase.
	finish(ctx context.Context) error
}

var workloads = map[string]func(*env) workload{
	"table-sweep":  newTableSweep,
	"daemon-mix":   newDaemonMix,
	"ideal-attack": newIdealAttack,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is what a workload shares with the harness: the configuration,
// the op tally, the tracer (nil when untraced) and the resources to
// release on every exit path.
type env struct {
	cfg config
	log io.Writer
	m   *measure
	tr  *tracer
	// traced is set while a traced run replays its rounds untraced on a
	// fresh instance, to measure the tracing overhead; it is the traced
	// instance the replay's outputs are compared with.
	traced workload
	// rounds is the number of rounds the measured phase ran.
	rounds int

	closeMu sync.Mutex
	closers []func()
}

// onClose registers a release function; closeAll runs each once, last
// registered first.
func (e *env) onClose(f func()) {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	e.closers = append(e.closers, f)
}

func (e *env) closeAll() {
	e.closeMu.Lock()
	fs := e.closers
	e.closers = nil
	e.closeMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// measure tallies the ops of the measured phase.
type measure struct {
	mu        sync.Mutex
	attempted int
	completed int
	failed    int
	opTimes   []float64
	problems  []string
	layer     map[string]float64
}

// begin records n ops as attempted.
func (m *measure) begin(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted += n
}

// done records n ops as completed.
func (m *measure) done(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed += n
}

// sample adds one op time, in seconds, to the distribution op_p50_s is
// the median of.
func (m *measure) sample(opTime float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opTimes = append(m.opTimes, opTime)
}

// fail records n ops as failed.
func (m *measure) fail(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed += n
}

// wrong records a failed output check.
func (m *measure) wrong(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.problems) < 50 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// setLayer stores a per-layer metric value.
func (m *measure) setLayer(name string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.layer == nil {
		m.layer = make(map[string]float64)
	}
	m.layer[name] = v
}

// abandon counts every op that started but has not ended as failed.
func (m *measure) abandon() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed = m.attempted - m.completed
}

func (m *measure) snapshot() (attempted, completed, failed int, problems []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attempted, m.completed, m.failed, append([]string(nil), m.problems...)
}

// phase is what the measured phase reports to the harness.
type phase struct {
	setups []float64
	wall   float64
	cpu    float64
	rss    []float64
	steal  float64
	err    error
}

// deadline bounds a whole run, and grace is how long ops get to observe
// cancellation at the deadline before the run is abandoned; together
// they stay under three minutes.
const (
	deadline = 150 * time.Second
	grace    = 15 * time.Second
)

// run executes one benchmark run. The workload runs on its own
// goroutine so that the hard deadline holds even if an op does not
// observe cancellation: after the grace period every resource is
// released and the run is abandoned.
func run(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	// SIGINT and SIGTERM end the run the way the deadline does: ops are
	// cancelled and counted as failed, and the daemon is released.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, cfg.Deadline)
	defer cancel()
	e := &env{cfg: cfg, log: log, m: &measure{}}
	if cfg.Trace {
		e.tr = newTracer()
	}
	defer e.closeAll()

	ch := make(chan phase, 1)
	go func() { ch <- runPhases(ctx, e) }()
	var ph phase
	select {
	case ph = <-ch:
	case <-ctx.Done():
		select {
		case ph = <-ch:
		case <-time.After(grace):
			ph.err = fmt.Errorf("ops did not stop within %v of the deadline", grace)
		}
	}
	if ctx.Err() != nil {
		e.m.abandon()
		e.closeAll()
		attempted, _, failed, _ := e.m.snapshot()
		return &result{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}},
			fmt.Errorf("stopped (%v) before the run ended: %d of %d ops counted as failed (%v)", context.Cause(ctx), failed, attempted, ph.err)
	}
	return report(e, ph)
}

// setups is how many times the set-up runs (two with --tiny); setup_s is
// their median and the last set-up serves the measured phase.
const setups = 7

// warmSeed seeds every workload's warm-up op. The warm-up does the same
// work whatever --seed is, so setup_s compares the same work from run to
// run: with seed-derived warm-ups the median of three set-ups spread by
// 20-37% across seeds, while the set-ups of one run agreed within 10%.
const warmSeed = 1 << 20

// runPhases runs the set-ups, the measured phase, the untraced replay of
// a traced run and the final checks.
func runPhases(ctx context.Context, e *env) (ph phase) {
	cfg := e.cfg
	mk := workloads[cfg.Workload]
	n := setups
	if cfg.Tiny {
		n = 2
	}
	var w workload
	for i := 0; i < n; i++ {
		if i > 0 {
			// Release the previous set-up before timing the next one.
			e.closeAll()
		}
		w = mk(e)
		// Time each set-up from a collected heap, so garbage left by the
		// one before does not land on it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			ph.err = fmt.Errorf("set-up: %w", err)
			return ph
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	rss := startRSSSampler(10 * time.Millisecond)
	defer rss.finish()
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	t0 := time.Now()
	for r := 0; ; r++ {
		if err := w.round(ctx, r); err != nil {
			ph.err = fmt.Errorf("round %d: %w", r, err)
			return ph
		}
		e.rounds++
		if time.Since(t0).Seconds() >= cfg.Seconds {
			break
		}
	}
	ph.wall = time.Since(t0).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	ph.rss = rss.finish()
	ph.steal = stealSeconds() - steal0

	if e.tr != nil {
		if err := replayUntraced(ctx, e, w, ph.wall); err != nil {
			ph.err = fmt.Errorf("untraced replay: %w", err)
			return ph
		}
	}
	if err := w.finish(ctx); err != nil {
		ph.err = fmt.Errorf("final checks: %w", err)
	}
	return ph
}

// replayUntraced measures the tracing overhead: a fresh instance of the
// workload, set up untraced, runs the same rounds with the same seeds
// (for daemon-mix: against an empty cache again), and its wall time is
// compared with the traced measured phase's. The replay's outputs are
// checked as an untraced run checks them, and table-sweep also compares
// them with the traced cells. The traced instance finishes after the
// replay, so the per-layer metrics it stores are the ones reported.
func replayUntraced(ctx context.Context, e *env, traced workload, tracedWall float64) error {
	tr := e.tr
	e.tr, e.traced = nil, traced
	defer func() { e.tr, e.traced = tr, nil }()
	w := workloads[e.cfg.Workload](e)
	if err := w.setup(ctx); err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	for r := 0; r < e.rounds; r++ {
		if err := w.round(ctx, r); err != nil {
			return err
		}
	}
	untraced := time.Since(t0).Seconds()
	if err := w.finish(ctx); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "traced measured phase %.3fs, untraced replay of its %d rounds %.3fs\n", tracedWall, e.rounds, untraced)
	e.m.setLayer("trace.overhead", tracedWall/untraced-1)
	return nil
}

// report builds the result line from the finished run.
func report(e *env, ph phase) (*result, error) {
	attempted, completed, failed, problems := e.m.snapshot()
	for _, p := range problems {
		fmt.Fprintln(e.log, "check failed:", p)
	}
	res := &result{
		Correct:   len(problems) == 0 && ph.err == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	fmt.Fprintf(e.log, "%s seed=%d: %d ops attempted, %d completed, %d failed\n",
		e.cfg.Workload, e.cfg.Seed, attempted, completed, failed)
	if ph.err != nil {
		return res, ph.err
	}
	if e.cfg.Trace {
		if err := e.tr.report(e); err != nil {
			return res, err
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{Value: e.m.layer[d.name], Unit: d.unit}
		}
		return res, nil
	}
	if completed == 0 {
		return res, errors.New("no op completed")
	}
	rss := peakRSSMB()
	if len(ph.rss) == 0 {
		return res, errors.New("no RSS sample taken")
	}
	// peak_rss_mb is the 99th percentile of the RSS samples: the maximum
	// itself swings with spikes of a few milliseconds that GC timing
	// makes, by 2x between runs of the same seed.
	q := append([]float64(nil), ph.rss...)
	sort.Float64s(q)
	at := func(p float64) float64 { return q[int(p*float64(len(q)-1))] }
	res.Metrics["setup_s"] = metric{median(ph.setups), "s"}
	res.Metrics["ops_per_s"] = metric{float64(completed) / ph.wall, "1/s"}
	res.Metrics["op_p50_s"] = metric{median(e.m.opTimes), "s"}
	res.Metrics["cpu_per_op_s"] = metric{ph.cpu / float64(completed), "s"}
	res.Metrics["peak_rss_mb"] = metric{at(0.99), "MB"}
	fmt.Fprintf(e.log, "RSS samples %d: p50 %.1f p90 %.1f p95 %.1f p99 %.1f max %.1f; ru_maxrss %.1f\n", len(q), at(.5), at(.9), at(.95), at(.99), at(1), rss)
	fmt.Fprintf(e.log, "setup_s samples %v; %d op-time samples; measured wall %.3fs, cpu %.3fs, host steal %.2fs\n",
		ph.setups, len(e.m.opTimes), ph.wall, ph.cpu, ph.steal)
	return res, nil
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's maximum resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitmix64 derives the op seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed is the seed of op i of round r: nonzero (the flow maps seed 0
// to a default) and below 2^32 so derived flow seeds never wrap.
func opSeed(seed uint64, r, i int) uint64 {
	return splitmix64(seed^splitmix64(uint64(r)<<16|uint64(i)))%(1<<32-1) + 1
}
