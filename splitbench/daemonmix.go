package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/locking"
	"repro/internal/server"
)

// mixJob is one slot of a daemon-mix round.
type mixJob struct {
	kind  flow.JobKind
	bench string
	// repeat is the slot whose spec this job resubmits (a cache hit),
	// or -1 for a fresh spec (a cache miss).
	repeat int
}

// mixRound is the make-up of every daemon-mix round: twelve fresh
// specs and six repeats, so one job in three is a cache hit. The fresh
// specs are lock, verify and attack jobs over full-size ISCAS'85 and
// 0.1-scale ITC'99 circuits; each repeat resubmits an earlier slot of
// the same round, one lock, verify and attack job each over two
// circuits. Jobs run in this order, one at a time, so a repeat is
// submitted after its miss has settled: a cache hit, never a
// singleflight join.
var mixRound = []mixJob{
	{flow.JobLock, "c432", -1},
	{flow.JobVerify, "b14", -1},
	{flow.JobAttack, "c880", -1},
	{flow.JobLock, "b14", -1},
	{flow.JobVerify, "c1355", -1},
	{flow.JobLock, "c432", 0},
	{flow.JobAttack, "b20", -1},
	{flow.JobVerify, "c1908", -1},
	{flow.JobAttack, "c880", 2},
	{flow.JobLock, "c880", -1},
	{flow.JobVerify, "b15", -1},
	{flow.JobVerify, "c1355", 4},
	{flow.JobAttack, "c1355", -1},
	{flow.JobVerify, "b14", -1},
	{flow.JobVerify, "c1908", 7},
	{flow.JobLock, "b15", -1},
	{flow.JobLock, "c880", 9},
	{flow.JobAttack, "c1355", 12},
}

// daemonMix serves internal/server's Manager over loopback HTTP inside
// the benchmark process and drives it with a closed loop of one client,
// which submits its next job only after the previous one has settled.
// With two clients, pairs of concurrent jobs on two cores made the
// figures unsteady: the same seed run four times spread by 10% in
// op_p50_s and 5% in ops_per_s, five seeds by 10-13%. One client spreads
// by 2-6% across seeds.
type daemonMix struct {
	e        *env
	keyBits  int
	itcScale float64
	stateDir string
	base     string
	client   *http.Client
	// rounds counts the rounds run, and jobs holds their jobs.
	rounds int
	jobs   []*jobRun
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	spec   flow.JobSpec
	orig   *jobRun // the miss a repeat resubmits
	failed bool

	post, reply, running, final, end time.Time
	events                           []timedEvent
	rejected                         int
	rec                              server.JobRecord
}

type timedEvent struct {
	flow.JobEvent
	at time.Time
}

func newDaemonMix(e *env) workload {
	w := &daemonMix{e: e, keyBits: 64, itcScale: 0.1}
	if e.cfg.Tiny {
		w.keyBits, w.itcScale = 16, 0.02
	}
	return w
}

func (w *daemonMix) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.e.cfg.WorkDir, "daemon-state-")
	if err != nil {
		return err
	}
	w.stateDir = dir
	w.e.onClose(func() { os.RemoveAll(dir) })
	mgr, err := server.NewManager(server.ManagerOptions{StateDir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.drain(mgr)
		return err
	}
	srv := &http.Server{Handler: server.NewServer(mgr), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	transport := &http.Transport{}
	w.client = &http.Client{Transport: transport}
	w.base = "http://" + ln.Addr().String()
	fmt.Fprintf(w.e.log, "daemon listening on %s, state in %s\n", ln.Addr(), dir)
	w.e.onClose(func() {
		// Drain first so every event stream ends, then close the
		// listener and every connection, and wait for Serve to return.
		w.drain(mgr)
		srv.Close()
		<-served
		transport.CloseIdleConnections()
	})
	// Warm-up: a spec that is not in the mix (no verify job on c432).
	warm := &jobRun{spec: w.spec(flow.JobVerify, "c432", warmSeed)}
	if err := w.submit(ctx, warm); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if warm.rec.Status != server.StatusDone {
		return fmt.Errorf("warm-up job ended %s: %s", warm.rec.Status, warm.rec.Error)
	}
	return nil
}

func (w *daemonMix) drain(mgr *server.Manager) {
	if err := mgr.Drain(10 * time.Second); err != nil {
		fmt.Fprintln(w.e.log, "daemon drain:", err)
	}
}

func (w *daemonMix) spec(kind flow.JobKind, bench string, seed uint64) flow.JobSpec {
	scale := 1.0
	if strings.HasPrefix(bench, "b") {
		scale = w.itcScale
	}
	return flow.JobSpec{Kind: kind, Bench: bench, Scale: scale, KeyBits: w.keyBits, Seed: seed}
}

func (w *daemonMix) round(ctx context.Context, r int) error {
	w.rounds++
	jobs := make([]*jobRun, 0, len(mixRound))
	for i, s := range mixRound {
		if ctx.Err() != nil {
			break
		}
		j := &jobRun{}
		if s.repeat >= 0 {
			j.orig = jobs[s.repeat]
			j.spec = j.orig.spec
		} else {
			j.spec = w.spec(s.kind, s.bench, opSeed(w.e.cfg.Seed, r, i))
		}
		jobs = append(jobs, j)
		w.runJob(ctx, j)
	}
	w.jobs = append(w.jobs, jobs...)
	return ctx.Err()
}

// runJob submits one job and follows it to its end.
func (w *daemonMix) runJob(ctx context.Context, j *jobRun) {
	m := w.e.m
	m.begin(1)
	if err := w.submit(ctx, j); err != nil {
		j.failed = true
		m.fail(1)
		fmt.Fprintf(w.e.log, "daemon-mix %s %s seed %d: %v\n", j.spec.Kind, j.spec.Bench, j.spec.Seed, err)
		return
	}
	m.done(1)
	if j.orig == nil {
		// op_p50_s is taken over cache misses only.
		m.sample(j.final.Sub(j.post).Seconds())
	}
	fmt.Fprintf(w.e.log, "op %s %s seed %d: %.3fs (cache %s)\n", j.spec.Kind, j.spec.Bench, j.spec.Seed, j.final.Sub(j.post).Seconds(), j.rec.Cache)
	w.traceJob(j)
}

// submit POSTs the job, reads its NDJSON events to the final line, then
// GETs its record.
func (w *daemonMix) submit(ctx context.Context, j *jobRun) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	var rec server.JobRecord
	for {
		j.post = time.Now()
		code, err := w.call(ctx, http.MethodPost, "/v1/jobs", body, &rec)
		if err != nil {
			return err
		}
		if code == http.StatusServiceUnavailable {
			j.rejected++
			select {
			case <-time.After(50 * time.Millisecond):
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("POST /v1/jobs: status %d", code)
		}
		break
	}
	j.reply = time.Now()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev flow.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return fmt.Errorf("event line %q: %w", sc.Text(), err)
		}
		at := time.Now()
		j.events = append(j.events, timedEvent{ev, at})
		if ev.Stage == "status" && ev.Message == string(server.StatusRunning) && j.running.IsZero() {
			j.running = at
		}
		if ev.Stage == "final" {
			j.final = at
			break
		}
	}
	serr := sc.Err()
	resp.Body.Close()
	if serr != nil {
		return fmt.Errorf("reading events: %w", serr)
	}
	if j.final.IsZero() {
		return errors.New("event stream ended without a final line")
	}
	code, err := w.call(ctx, http.MethodGet, "/v1/jobs/"+rec.ID, nil, &j.rec)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s: status %d", rec.ID, code)
	}
	j.end = time.Now()
	if j.running.IsZero() {
		j.running = j.reply
	}
	return nil
}

// call makes one JSON request and decodes a 2xx reply into out.
func (w *daemonMix) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// firstCompute is the index of the job's first compute-stage event
// (anything but status lines), or -1 when there is none (a hit).
func (j *jobRun) firstCompute() int {
	for i, ev := range j.events {
		if ev.Stage != "status" && ev.Stage != "final" {
			return i
		}
	}
	return -1
}

// stageTime is the time from the first event of stage `from` to the
// next event of another stage, or zero when the job has no such event.
func (j *jobRun) stageTime(from string) float64 {
	for i, ev := range j.events {
		if ev.Stage != from {
			continue
		}
		for _, nx := range j.events[i+1:] {
			if nx.Stage != from {
				return nx.at.Sub(ev.at).Seconds()
			}
		}
	}
	return 0
}

// doneAt is the arrival of the terminal status event.
func (j *jobRun) doneAt() time.Time {
	for i := len(j.events) - 1; i >= 0; i-- {
		if j.events[i].Stage == "status" {
			return j.events[i].at
		}
	}
	return j.final
}

// traceJob turns the client's timestamps into spans: submit, queue
// wait, prepare (or the whole hit), one span per progress stage, and the
// result delivery.
func (w *daemonMix) traceJob(j *jobRun) {
	tr := w.e.tr
	if tr == nil {
		return
	}
	op := tr.newOp()
	root := tr.add("daemon.job", 0, op, j.post, j.end)
	tr.add("server.submit", root, op, j.post, j.reply)
	tr.add("server.queue_wait", root, op, j.reply, j.running)
	done := j.doneAt()
	first := j.firstCompute()
	if first < 0 {
		tr.add("server.hit", root, op, j.running, done)
	} else {
		tr.add("flow.prepare", root, op, j.running, j.events[first].at)
		for i := first; i+1 < len(j.events); i++ {
			ev := j.events[i]
			if ev.Stage == "status" || ev.Stage == "final" {
				break
			}
			tr.add(daemonSpanName(ev.JobEvent), root, op, ev.at, j.events[i+1].at)
		}
	}
	tr.add("server.result", root, op, done, j.end)
}

// daemonSpanName names the span a job's progress event opens.
func daemonSpanName(ev flow.JobEvent) string {
	if s, ok := stageSpans[ev.Stage]; ok {
		return s
	}
	if ev.Stage == "attack" {
		if strings.HasPrefix(ev.Message, "attack finished") {
			return "attack.key_check"
		}
		return "attack.sat"
	}
	return "flow." + ev.Stage
}

func (w *daemonMix) finish(ctx context.Context) error {
	m := w.e.m
	jobs := w.jobs

	var submit, queue, prepare, hit, atpg, lecT []float64
	kindTime := map[flow.JobKind][]float64{}
	var lecN, attackN float64
	var lec [4]float64
	var atk [3]float64
	var hits, misses, coalesced, rejected int
	for _, j := range jobs {
		rejected += j.rejected
		if j.failed || j.end.IsZero() {
			continue
		}
		label := fmt.Sprintf("%s %s seed %d (%s)", j.spec.Kind, j.spec.Bench, j.spec.Seed, j.rec.ID)
		if j.rec.Status != server.StatusDone {
			m.wrong("%s ended %s: %s", label, j.rec.Status, j.rec.Error)
			continue
		}
		switch j.rec.Cache {
		case "hit":
			hits++
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		}
		submit = append(submit, j.reply.Sub(j.post).Seconds())
		queue = append(queue, j.running.Sub(j.reply).Seconds())
		if j.orig != nil {
			// A cache hit must be byte-identical to its miss.
			if j.rec.Cache != "hit" {
				m.wrong("%s repeats %s but was a cache %q", label, j.orig.rec.ID, j.rec.Cache)
			}
			if !bytes.Equal(j.rec.Result, j.orig.rec.Result) {
				m.wrong("%s: cached result differs from the result of %s", label, j.orig.rec.ID)
			}
			hit = append(hit, j.final.Sub(j.post).Seconds())
			continue
		}
		if j.rec.Cache != "miss" {
			m.wrong("%s is a fresh spec but was a cache %q", label, j.rec.Cache)
		}
		if i := j.firstCompute(); i >= 0 {
			cs := j.events[i].at
			prepare = append(prepare, cs.Sub(j.running).Seconds())
			kindTime[j.spec.Kind] = append(kindTime[j.spec.Kind], j.doneAt().Sub(cs).Seconds())
		}
		switch j.spec.Kind {
		case flow.JobLock:
			var res flow.LockJobResult
			if err := json.Unmarshal(j.rec.Result, &res); err != nil {
				m.wrong("%s: %v", label, err)
				continue
			}
			if res.KeyBits != w.keyBits {
				m.wrong("%s: lock job reports %d key bits, requested %d", label, res.KeyBits, w.keyBits)
			}
			atpg = append(atpg, j.stageTime("lock"))
			lecT = append(lecT, j.stageTime("lec"))
			if s := res.LECStats; s != nil {
				lec[0], lec[1], lec[2], lec[3] = lec[0]+float64(s.AIGNodes), lec[1]+float64(s.SweepMerges), lec[2]+float64(s.SATPairs), lec[3]+float64(s.ProblemClauses)
				lecN++
			}
		case flow.JobVerify:
			var res flow.VerifyJobResult
			if err := json.Unmarshal(j.rec.Result, &res); err != nil {
				m.wrong("%s: %v", label, err)
				continue
			}
			if !res.Equivalent {
				m.wrong("%s: verify job says the locked circuit is not equivalent", label)
			}
			if res.KeyBits != w.keyBits {
				m.wrong("%s: verify job reports %d key bits, requested %d", label, res.KeyBits, w.keyBits)
			}
			lecT = append(lecT, j.stageTime("lec"))
			s := res.Stats
			lec[0], lec[1], lec[2], lec[3] = lec[0]+float64(s.AIGNodes), lec[1]+float64(s.SweepMerges), lec[2]+float64(s.SATPairs), lec[3]+float64(s.ProblemClauses)
			lecN++
		case flow.JobAttack:
			var res flow.AttackJobResult
			if err := json.Unmarshal(j.rec.Result, &res); err != nil {
				m.wrong("%s: %v", label, err)
				continue
			}
			if err := w.checkKey(j.spec, res.Key); err != nil {
				m.wrong("%s: %v", label, err)
			} else if !res.Success {
				m.wrong("%s: the recovered key works, but the job reports failure", label)
			}
			atk[0], atk[1], atk[2] = atk[0]+float64(res.Iterations), atk[1]+float64(res.OracleEvals), atk[2]+float64(res.SolveCalls)
			attackN++
		}
	}

	var journal float64
	if fi, err := os.Stat(filepath.Join(w.stateDir, "jobs.json")); err == nil {
		journal = float64(fi.Size())
	} else {
		m.wrong("jobs journal: %v", err)
	}
	m.setLayer("server.submit_s", median(submit))
	m.setLayer("server.queue_wait_s", median(queue))
	m.setLayer("flow.prepare_s", median(prepare))
	m.setLayer("server.hit_s", median(hit))
	m.setLayer("flow.lock_job_s", median(kindTime[flow.JobLock]))
	m.setLayer("flow.verify_job_s", median(kindTime[flow.JobVerify]))
	m.setLayer("attack.sat_job_s", median(kindTime[flow.JobAttack]))
	m.setLayer("locking.atpglock_s", median(atpg))
	m.setLayer("lec.check_s", median(lecT))
	// Counts are per round and the journal per job it holds (the
	// warm-up's too), so they do not grow with the number of rounds that
	// fit in the run.
	if w.rounds > 0 {
		perRound := func(n int) float64 { return float64(n) / float64(w.rounds) }
		m.setLayer("server.cache_hits", perRound(hits))
		m.setLayer("server.cache_misses", perRound(misses))
		m.setLayer("server.cache_coalesced", perRound(coalesced))
		m.setLayer("server.rejected", perRound(rejected))
	}
	m.setLayer("server.journal_bytes", journal/float64(len(jobs)+1))
	if lecN > 0 {
		m.setLayer("lec.aig_nodes", lec[0]/lecN)
		m.setLayer("lec.sweep_merges", lec[1]/lecN)
		m.setLayer("lec.sat_pairs", lec[2]/lecN)
		m.setLayer("lec.problem_clauses", lec[3]/lecN)
	}
	if attackN > 0 {
		m.setLayer("attack.sat_iterations", atk[0]/attackN)
		m.setLayer("attack.oracle_evals", atk[1]/attackN)
		m.setLayer("attack.solve_calls", atk[2]/attackN)
	}
	if w.e.tr != nil {
		m.setLayer("flow.span_coverage", w.e.tr.coverage("daemon.job"))
	}
	fmt.Fprintf(w.e.log, "daemon-mix: %d jobs, cache %d hit / %d miss / %d coalesced, %d rejected, journal %.0f bytes\n",
		len(jobs), hits, misses, coalesced, rejected, journal)
	return ctx.Err()
}

// checkKey rebuilds the locked netlist with the public locking call and
// the job's documented lock seed (spec seed + split layer × 1000), applies
// the recovered key and checks with the benchmark's own evaluator that
// it computes the original's function.
func (w *daemonMix) checkKey(spec flow.JobSpec, key string) error {
	orig, err := bmarks.Load(spec.Bench, spec.Scale)
	if err != nil {
		return err
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: spec.KeyBits, Seed: spec.Seed + 4*1000})
	if err != nil {
		return fmt.Errorf("re-locking: %w", err)
	}
	if len(key) != len(lk.KeyBits) {
		return fmt.Errorf("recovered key has %d bits, the lock %d", len(key), len(lk.KeyBits))
	}
	k := locking.Key{Bits: make([]bool, len(key))}
	for i, ch := range key {
		k.Bits[i] = ch == '1'
	}
	rec, err := lk.ApplyKey(k)
	if err != nil {
		return err
	}
	bad, err := mismatches(orig, rec, 32, spec.Seed)
	if err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("the recovered key computes a different function on %d of %d patterns", bad, 32*64)
	}
	return nil
}
