package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/sim"
)

// idealAttack runs the Sec. IV-A ideal proximity attack through
// flow.RunIdealAttack: regular nets granted, key-nets guessed at random.
// One op is one guess-and-simulate run; each call makes `runs` of them
// after one flow.Run.
type idealAttack struct {
	e        *env
	benches  []string
	scale    float64
	keyBits  int
	runs     int
	patterns int
	// calls are the calls of round 0, sampled by the traced run.
	calls   []idealCall
	total   flow.IdealAttackResult
	rounds  int
	samples int
}

// minErrShare is the share of a call's runs that must show an output
// error. Sec. IV-A reports OER = 100%, but the program observes primary
// outputs only, and on some seeds a wrong-key netlist whose errors sit in
// the next state counts as error-free (README, "Checks"): 1 run of 4096
// on the worst seed seen. The bound lets that known gap pass and still
// fails a run when the comparison stops seeing differences.
const minErrShare = 0.99

type idealCall struct {
	bench string
	seed  uint64
}

func newIdealAttack(e *env) workload {
	w := &idealAttack{e: e, benches: []string{"b14", "b15", "b20"}, scale: 0.1, keyBits: 128,
		runs: 4096, patterns: 256, samples: 64}
	if e.cfg.Tiny {
		w.scale, w.keyBits, w.runs, w.samples = 0.05, 64, 128, 4
	}
	return w
}

func (w *idealAttack) setup(ctx context.Context) error {
	if err := bmarks.Validate(w.benches); err != nil {
		return err
	}
	// Warm-up: a small call, so set-up stays short enough to repeat.
	_, err := flow.RunIdealAttack(ctx, "b15", w.scale/2, w.keyBits/2, w.runs/16, w.patterns, warmSeed)
	return err
}

func (w *idealAttack) round(ctx context.Context, r int) error {
	m, tr := w.e.m, w.e.tr
	w.rounds++
	start, runs := time.Now(), 0
	for i, b := range w.benches {
		seed := opSeed(w.e.cfg.Seed, r, i)
		op := tr.newOp()
		m.begin(w.runs)
		t0 := time.Now()
		res, err := flow.RunIdealAttack(ctx, b, w.scale, w.keyBits, w.runs, w.patterns, seed)
		t1 := time.Now()
		tr.add("ideal.call", 0, op, t0, t1)
		if err != nil {
			m.fail(w.runs)
			fmt.Fprintf(w.e.log, "ideal-attack %s seed %d: %v\n", b, seed, err)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		// Sec. IV-A: random key guesses never recover the key, and
		// (nearly) every run shows an output error; finish also checks
		// OER = 100% with the benchmark's own evaluator, which observes
		// the next state as well.
		if res.Runs != w.runs || res.FullKeyRecoveries != 0 {
			m.wrong("%s seed %d: %d runs (want %d), %d full-key recoveries (want 0)",
				b, seed, res.Runs, w.runs, res.FullKeyRecoveries)
		}
		if float64(res.ErrRuns) < minErrShare*float64(res.Runs) {
			m.wrong("%s seed %d: only %d of %d runs show an output error (want at least %.0f%%)",
				b, seed, res.ErrRuns, res.Runs, 100*minErrShare)
		} else if res.ErrRuns != res.Runs {
			fmt.Fprintf(w.e.log, "ideal-attack %s seed %d: %d of %d runs show no error on the primary outputs\n",
				b, seed, res.Runs-res.ErrRuns, res.Runs)
		}
		w.total.Runs += res.Runs
		w.total.ErrRuns += res.ErrRuns
		w.total.FullKeyRecoveries += res.FullKeyRecoveries
		if r == 0 {
			w.calls = append(w.calls, idealCall{b, seed})
		}
		m.done(w.runs)
		runs += w.runs
	}
	// Runs are not timed one by one: the op time is the round's wall
	// time per run.
	if runs > 0 {
		m.sample(time.Since(start).Seconds() / float64(runs))
	}
	return nil
}

// finish checks, with the benchmark's own evaluator observing outputs
// and next state, that the secret assignment recombines to the original
// and that sampled random key guesses do not (OER = 100%): for the first
// call of round 0, or for every call of it in the traced run. The
// traced run also times what one call spends outside the run loop (its
// flow.Run) and what one run costs in sim: compiling the evaluators of
// the original and the recovered netlist, and comparing them.
func (w *idealAttack) finish(ctx context.Context) error {
	m := w.e.m
	if w.total.Runs > 0 {
		m.setLayer("ideal.runs", float64(w.total.Runs)/float64(w.rounds))
		m.setLayer("ideal.err_run_share", float64(w.total.ErrRuns)/float64(w.total.Runs))
	}
	calls, samples := w.calls, w.samples
	if w.e.tr == nil && len(calls) > 0 {
		calls, samples = calls[:1], w.samples/4
	}
	var setup, compile, compare []float64
	for _, c := range calls {
		orig, err := bmarks.Load(c.bench, w.scale)
		if err != nil {
			return err
		}
		t0 := time.Now()
		// The same flow.Run RunIdealAttack makes.
		art, err := flow.Run(ctx, orig, flow.Config{KeyBits: w.keyBits, SplitLayer: 4, Seed: c.seed, UseATPGLock: true})
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		rec, err := art.View.Recombine(art.Secret.Assignment)
		if err != nil {
			return err
		}
		if bad, err := mismatches(orig, rec, 16, c.seed); err != nil || bad != 0 {
			m.wrong("%s seed %d: secret assignment recombines to a different circuit (%d bad patterns, %v)", c.bench, c.seed, bad, err)
		}
		for k := 0; k < samples; k++ {
			asg := attack.Ideal(art.View, art.Secret, c.seed+uint64(k)*2654435761)
			guess, err := art.View.Recombine(asg)
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := sim.NewEvaluator(orig); err != nil {
				return err
			}
			if _, err := sim.NewEvaluator(guess); err != nil {
				return err
			}
			compile = append(compile, time.Since(t).Seconds())
			t = time.Now()
			if _, err := sim.Compare(orig, guess, sim.CompareOptions{Patterns: w.patterns, Seed: c.seed + uint64(k), Workers: 1}); err != nil {
				return err
			}
			compare = append(compare, time.Since(t).Seconds())
			if bad, err := mismatches(orig, guess, w.patterns/64, c.seed+uint64(k)); err != nil {
				m.wrong("%s seed %d guess %d: %v", c.bench, c.seed, k, err)
			} else if bad == 0 {
				m.wrong("%s seed %d guess %d: a random key guess shows no error on outputs or next state over %d patterns", c.bench, c.seed, k, w.patterns)
			}
		}
	}
	if w.e.tr == nil {
		return ctx.Err()
	}
	m.setLayer("flow.ideal_setup_s", median(setup))
	m.setLayer("sim.compile_s", median(compile))
	m.setLayer("sim.compare_s", median(compare))
	fmt.Fprintf(w.e.log, "ideal-attack: flow.Run %.3fs per call; per run: compile %.6fs, compare %.6fs (compile included)\n",
		median(setup), median(compile), median(compare))
	return ctx.Err()
}
