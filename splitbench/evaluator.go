package main

import (
	"fmt"

	"repro/internal/netlist"
)

// circuitEval evaluates a netlist 64 patterns at a time, gate by gate in
// topological order. It shares no code with the program's sim, aig or
// lec packages, so its verdicts check theirs.
type circuitEval struct {
	c     *netlist.Circuit
	order []netlist.GateID
	nets  []uint64
}

func newCircuitEval(c *netlist.Circuit) (*circuitEval, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &circuitEval{c: c, order: append([]netlist.GateID(nil), order...), nets: make([]uint64, c.NumIDs())}, nil
}

// eval computes every gate from the preset sources.
func (ev *circuitEval) eval() {
	nets := ev.nets
	for _, id := range ev.order {
		g := ev.c.Gate(id)
		var v uint64
		switch g.Type {
		case netlist.Input, netlist.DFF:
			continue
		case netlist.TieHi:
			v = ^uint64(0)
		case netlist.TieLo:
			v = 0
		case netlist.Buf, netlist.Output:
			v = nets[g.Fanin[0]]
		case netlist.Not:
			v = ^nets[g.Fanin[0]]
		case netlist.And, netlist.Nand:
			v = ^uint64(0)
			for _, f := range g.Fanin {
				v &= nets[f]
			}
			if g.Type == netlist.Nand {
				v = ^v
			}
		case netlist.Or, netlist.Nor:
			for _, f := range g.Fanin {
				v |= nets[f]
			}
			if g.Type == netlist.Nor {
				v = ^v
			}
		case netlist.Xor, netlist.Xnor:
			for _, f := range g.Fanin {
				v ^= nets[f]
			}
			if g.Type == netlist.Xnor {
				v = ^v
			}
		case netlist.Mux:
			s := nets[g.Fanin[0]]
			v = ^s&nets[g.Fanin[1]] | s&nets[g.Fanin[2]]
		default:
			panic(fmt.Sprintf("evaluator: unknown gate type %v", g.Type))
		}
		nets[id] = v
	}
}

// observables returns, for the circuit being evaluated, the net IDs of
// the named sources and of the observables: primary outputs in
// declaration order, then the next state of each named flip-flop.
func (ev *circuitEval) observables(sources, ffNames []string) (src, obs []netlist.GateID, err error) {
	c := ev.c
	for _, n := range sources {
		id := c.GateByName(n)
		if id == netlist.InvalidGate {
			return nil, nil, fmt.Errorf("%s has no input or flip-flop %q", c.Name, n)
		}
		src = append(src, id)
	}
	obs = append(obs, c.Outputs()...)
	for _, n := range ffNames {
		obs = append(obs, c.Gate(c.GateByName(n)).Fanin[0])
	}
	return src, obs, nil
}

// mismatches simulates a and b on words×64 random patterns, with the
// inputs and flip-flop states matched by name, and counts the patterns
// on which a primary output (matched by position) or a next-state value
// (matched by flip-flop name) differs. Sequential circuits are compared
// combinationally with random state.
func mismatches(a, b *netlist.Circuit, words int, seed uint64) (int, error) {
	if len(a.Inputs()) != len(b.Inputs()) || len(a.Outputs()) != len(b.Outputs()) || len(a.DFFs()) != len(b.DFFs()) {
		return 0, fmt.Errorf("boundaries differ: %s has %d/%d/%d inputs/outputs/flip-flops, %s has %d/%d/%d",
			a.Name, len(a.Inputs()), len(a.Outputs()), len(a.DFFs()), b.Name, len(b.Inputs()), len(b.Outputs()), len(b.DFFs()))
	}
	ea, err := newCircuitEval(a)
	if err != nil {
		return 0, err
	}
	eb, err := newCircuitEval(b)
	if err != nil {
		return 0, err
	}
	var sources, ffNames []string
	for _, id := range a.Inputs() {
		sources = append(sources, a.Gate(id).Name)
	}
	for _, id := range a.DFFs() {
		sources = append(sources, a.Gate(id).Name)
		ffNames = append(ffNames, a.Gate(id).Name)
	}
	srcA, obsA, err := ea.observables(sources, ffNames)
	if err != nil {
		return 0, err
	}
	srcB, obsB, err := eb.observables(sources, ffNames)
	if err != nil {
		return 0, err
	}
	draws := uint64(0)
	bad := 0
	for w := 0; w < words; w++ {
		for i := range srcA {
			draws++
			v := splitmix64(seed + draws*0x9e3779b97f4a7c15)
			ea.nets[srcA[i]] = v
			eb.nets[srcB[i]] = v
		}
		ea.eval()
		eb.eval()
		var diff uint64
		for i := range obsA {
			diff |= ea.nets[obsA[i]] ^ eb.nets[obsB[i]]
		}
		for ; diff != 0; diff &= diff - 1 {
			bad++
		}
	}
	return bad, nil
}
