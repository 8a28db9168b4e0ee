package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/split"
)

// tableSweep runs Table I/II rows the way `tables -table 1` does: one op
// is flow.RunITC on one ITC'99 benchmark with both split layers running
// in parallel. The traced run composes each cell from the public calls
// RunITC makes, so that every layer gets its own span.
type tableSweep struct {
	e        *env
	benches  []string
	scale    float64
	keyBits  int
	patterns int
	layers   []int

	mu sync.Mutex
	// traced holds the results of the traced cells, which the untraced
	// replay must reproduce.
	traced map[string]flow.SplitResult
	// cells holds the traced cells for the recombination check and the
	// per-layer counts.
	cells []tracedCell
}

// tracedCell is what a composed cell leaves for the final checks.
type tracedCell struct {
	key    string
	orig   *netlist.Circuit
	view   *split.FEOLView
	secret *split.Secret
	lec    [4]float64 // AIG nodes, sweep merges, SAT pairs, problem clauses
	pins   [2]float64 // regular and key cut pins
}

func newTableSweep(e *env) workload {
	w := &tableSweep{e: e, benches: []string{"b15", "b20", "b15"}, scale: 0.1,
		keyBits: 128, patterns: 1 << 16, layers: []int{4, 6}, traced: make(map[string]flow.SplitResult)}
	if e.cfg.Tiny {
		w.scale, w.keyBits, w.patterns = 0.02, 16, 1024
	}
	return w
}

func (w *tableSweep) options(bench string, scale float64, keyBits, patterns int, seed uint64) flow.ITCOptions {
	return flow.ITCOptions{
		Benchmarks:    []string{bench},
		Scale:         scale,
		KeyBits:       keyBits,
		Patterns:      patterns,
		Seed:          seed,
		SplitLayers:   w.layers,
		Parallel:      true,
		SolverWorkers: 2, // the `tables` default
	}
}

func (w *tableSweep) setup(ctx context.Context) error {
	if err := bmarks.Validate(w.benches); err != nil {
		return err
	}
	// Warm-up: a small row, so set-up stays short enough to repeat.
	_, err := flow.RunITC(ctx, w.options("b15", w.scale/2, w.keyBits/2, w.patterns/16, warmSeed))
	return err
}

// order is the seed-chosen order of the round's benchmarks.
func (w *tableSweep) order(r int) []string {
	out := append([]string(nil), w.benches...)
	s := opSeed(w.e.cfg.Seed, r, 1<<10)
	for i := len(out) - 1; i > 0; i-- {
		s = splitmix64(s)
		j := int(s % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (w *tableSweep) round(ctx context.Context, r int) error {
	for i, b := range w.order(r) {
		seed := opSeed(w.e.cfg.Seed, r, i)
		var err error
		if w.e.tr != nil {
			err = w.tracedOp(ctx, b, seed)
		} else {
			err = w.op(ctx, b, seed)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// op runs one RunITC row. It returns an error only when the run must
// stop; a failed row is counted and the round goes on.
func (w *tableSweep) op(ctx context.Context, bench string, seed uint64) error {
	m := w.e.m
	m.begin(1)
	t0 := time.Now()
	rows, err := flow.RunITC(ctx, w.options(bench, w.scale, w.keyBits, w.patterns, seed))
	d := time.Since(t0).Seconds()
	if err != nil {
		m.fail(1)
		fmt.Fprintf(w.e.log, "table-sweep %s seed %d: %v\n", bench, seed, err)
		return ctx.Err()
	}
	for _, layer := range w.layers {
		res, ok := rows[0].Results[layer]
		if !ok {
			m.wrong("%s: RunITC returned no M%d cell", bench, layer)
			continue
		}
		w.checkCell(bench, layer, res)
		if t, ok := w.e.traced.(*tableSweep); ok {
			t.compareWithTraced(bench, layer, seed, res)
		}
	}
	m.done(1)
	m.sample(d)
	fmt.Fprintf(w.e.log, "op %s seed %d: %.3fs\n", bench, seed, d)
	return nil
}

// checkCell checks the properties every Table I/II cell must have: the
// rates lie in [0,1], and key-net logical CCR lies within 4σ of 50%
// with σ = √(0.25/keybits) — key-nets fall no better than a coin flip
// (the paper's Theorem 1).
func (w *tableSweep) checkCell(bench string, layer int, res flow.SplitResult) {
	m := w.e.m
	c := res.CCR
	for name, v := range map[string]float64{"regular CCR": c.Regular, "key-physical CCR": c.KeyPhysical,
		"key-logical CCR": c.KeyLogical, "raw key-logical CCR": res.LogicalNoPost, "HD": res.HD, "OER": res.OER} {
		if !(v >= 0 && v <= 1) {
			m.wrong("%s/M%d: %s = %v, outside [0,1]", bench, layer, name, v)
		}
	}
	if c.KeyPins != w.keyBits {
		m.wrong("%s/M%d: %d key pins cut, want %d", bench, layer, c.KeyPins, w.keyBits)
	}
	sigma := math.Sqrt(0.25 / float64(w.keyBits))
	if math.Abs(c.KeyLogical-0.5) > 4*sigma {
		m.wrong("%s/M%d: key-logical CCR %.3f is more than 4σ (%.3f) from 0.5", bench, layer, c.KeyLogical, 4*sigma)
	}
}

// cellID names one cell of one op: a round can hold a benchmark twice.
func cellID(bench string, layer int, seed uint64) string {
	return fmt.Sprintf("%s seed %d", flow.ITCCellKey(bench, layer), seed)
}

// compareWithTraced checks a cell of the untraced replay against the
// traced cell with the same benchmark, layer and seed.
func (w *tableSweep) compareWithTraced(bench string, layer int, seed uint64, res flow.SplitResult) {
	key := cellID(bench, layer, seed)
	w.mu.Lock()
	want, ok := w.traced[key]
	w.mu.Unlock()
	if !ok {
		w.e.m.wrong("%s: no traced cell to compare with", key)
		return
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		w.e.m.wrong("%s: RunITC gives %s, the composed cell %s", key, a, b)
	}
}

// tracedOp runs one row as two composed cells in parallel, as RunITC
// does, with a span around every layer call.
func (w *tableSweep) tracedOp(ctx context.Context, bench string, seed uint64) error {
	m, tr := w.e.m, w.e.tr
	op := tr.newOp()
	m.begin(1)
	t0 := time.Now()
	root := tr.open("table.row", 0, op)
	results := make([]flow.SplitResult, len(w.layers))
	errs := make([]error, len(w.layers))
	var wg sync.WaitGroup
	for i, layer := range w.layers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = w.composedCell(ctx, bench, layer, seed, root, op)
		}()
	}
	wg.Wait()
	tr.close(root)
	d := time.Since(t0).Seconds()
	for i, err := range errs {
		if err != nil {
			m.fail(1)
			fmt.Fprintf(w.e.log, "table-sweep %s/M%d seed %d: %v\n", bench, w.layers[i], seed, err)
			return ctx.Err()
		}
	}
	for i, layer := range w.layers {
		w.checkCell(bench, layer, results[i])
		w.mu.Lock()
		w.traced[cellID(bench, layer, seed)] = results[i]
		w.mu.Unlock()
	}
	m.done(1)
	m.sample(d)
	return nil
}

// stageSpans names the span each flow.Run progress stage opens.
var stageSpans = map[string]string{
	"lock":  "locking.atpglock",
	"lec":   "lec.check",
	"place": "place.place",
	"route": "route.route",
	"split": "split.split",
}

// composedCell computes one Table I/II cell from the calls RunITC's cell
// makes, with the same seeds, so it must give the same SplitResult.
func (w *tableSweep) composedCell(ctx context.Context, bench string, layer int, seed uint64, parent, op int) (flow.SplitResult, error) {
	tr := w.e.tr
	cell := tr.open("flow.cell", parent, op)
	defer tr.close(cell)
	sp := tr.open("bmarks.load", cell, op)
	orig, err := bmarks.Load(bench, w.scale)
	tr.close(sp)
	if err != nil {
		return flow.SplitResult{}, err
	}
	stage := 0
	art, err := flow.Run(ctx, orig, flow.Config{
		KeyBits:       w.keyBits,
		SplitLayer:    layer,
		Seed:          seed + uint64(layer)*1000,
		UseATPGLock:   true,
		SolverWorkers: 2,
		Progress: func(name, _ string) {
			tr.close(stage)
			stage = tr.open(stageSpans[name], cell, op)
		},
	})
	tr.close(stage)
	if err != nil {
		return flow.SplitResult{}, err
	}
	res := flow.SplitResult{SplitLayer: layer}
	sp = tr.open("attack.proximity", cell, op)
	asg, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: seed + 7, KeyPostProcess: true})
	tr.close(sp)
	if err != nil {
		return res, err
	}
	sp = tr.open("metrics.ccr", cell, op)
	res.CCR = metrics.ComputeCCR(art.View, art.Secret, asg)
	tr.close(sp)
	// RunITC splits the simulation pool between its two parallel cells.
	simWorkers := max(1, runtime.GOMAXPROCS(0)/len(w.layers))
	sp = tr.open("metrics.functional", cell, op)
	d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{
		Patterns: w.patterns, Seed: seed + 8, Workers: simWorkers,
	})
	tr.close(sp)
	if err != nil {
		return res, err
	}
	res.HD, res.OER = d.HD, d.OER
	sp = tr.open("attack.proximity", cell, op)
	raw, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: seed + 7})
	tr.close(sp)
	if err != nil {
		return res, err
	}
	sp = tr.open("metrics.ccr", cell, op)
	res.LogicalNoPost = metrics.ComputeCCR(art.View, art.Secret, raw).KeyLogical
	tr.close(sp)

	tc := tracedCell{key: cellID(bench, layer, seed), orig: orig, view: art.View, secret: art.Secret,
		pins: [2]float64{float64(res.CCR.RegularPins), float64(res.CCR.KeyPins)}}
	if s := art.LECStats; s != nil {
		tc.lec = [4]float64{float64(s.AIGNodes), float64(s.SweepMerges), float64(s.SATPairs), float64(s.ProblemClauses)}
	}
	w.mu.Lock()
	w.cells = append(w.cells, tc)
	w.mu.Unlock()
	return res, nil
}

func (w *tableSweep) finish(ctx context.Context) error {
	tr := w.e.tr
	if tr == nil {
		return nil
	}
	m := w.e.m
	// The secret BEOL assignment must recombine to the original's
	// function, checked with the benchmark's own evaluator.
	for i, c := range w.cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := c.view.Recombine(c.secret.Assignment)
		if err != nil {
			m.wrong("%s: recombining the secret assignment: %v", c.key, err)
			continue
		}
		bad, err := mismatches(c.orig, rec, 16, opSeed(w.e.cfg.Seed, i, 1<<12))
		if err != nil {
			m.wrong("%s: %v", c.key, err)
		} else if bad != 0 {
			m.wrong("%s: the secret assignment recombines to a circuit that differs from the original on %d of %d patterns", c.key, bad, 16*64)
		}
	}

	n := float64(len(w.cells))
	perCell := func(span string) float64 {
		var s float64
		for _, d := range tr.named(span) {
			s += d
		}
		return s / n
	}
	for metric, span := range map[string]string{
		"attack.proximity_s":   "attack.proximity",
		"locking.atpglock_s":   "locking.atpglock",
		"lec.check_s":          "lec.check",
		"place.place_s":        "place.place",
		"route.route_s":        "route.route",
		"split.split_s":        "split.split",
		"metrics.functional_s": "metrics.functional",
		"flow.cell_s":          "flow.cell",
	} {
		m.setLayer(metric, perCell(span))
	}
	var lec [4]float64
	var pins [2]float64
	for _, c := range w.cells {
		for i := range lec {
			lec[i] += c.lec[i] / n
		}
		for i := range pins {
			pins[i] += c.pins[i] / n
		}
	}
	m.setLayer("lec.aig_nodes", lec[0])
	m.setLayer("lec.sweep_merges", lec[1])
	m.setLayer("lec.sat_pairs", lec[2])
	m.setLayer("lec.problem_clauses", lec[3])
	m.setLayer("split.regular_pins", pins[0])
	m.setLayer("split.key_pins", pins[1])
	cov := tr.coverage("flow.cell")
	m.setLayer("flow.span_coverage", cov)
	fmt.Fprintf(w.e.log, "flow.cell_s %.3f s per cell over %d cells; layer spans cover %.1f%% of it\n",
		perCell("flow.cell"), len(w.cells), 100*cov)
	return nil
}
