package qspec

import (
	"fmt"

	"smoothscan/internal/core"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/wire"
)

// Conversion between a Spec and its wire.QuerySpec — the shape
// ssclient and the remote shard driver ship to a server, and the
// server decodes back. The planner's and the wire's kind numberings
// are decoupled on purpose; these tables are the mapping.

var (
	predToWire = map[plan.PredKind]byte{
		plan.KindBetween: wire.PredBetween,
		plan.KindEq:      wire.PredEq,
		plan.KindLt:      wire.PredLt,
		plan.KindLe:      wire.PredLe,
		plan.KindGt:      wire.PredGt,
		plan.KindGe:      wire.PredGe,
	}
	aggToWire = map[exec.AggKind]byte{
		exec.AggSum:   wire.AggSum,
		exec.AggCount: wire.AggCount,
		exec.AggMin:   wire.AggMin,
		exec.AggMax:   wire.AggMax,
	}
	predFromWire = map[byte]plan.PredKind{
		wire.PredBetween: plan.KindBetween,
		wire.PredEq:      plan.KindEq,
		wire.PredLt:      plan.KindLt,
		wire.PredLe:      plan.KindLe,
		wire.PredGt:      plan.KindGt,
		wire.PredGe:      plan.KindGe,
	}
	aggFromWire = map[byte]func(col string) Agg{
		wire.AggSum:   Sum,
		wire.AggCount: func(string) Agg { return Count() },
		wire.AggMin:   Min,
		wire.AggMax:   Max,
	}
)

// Wire converts the spec to its wire form, or returns the first
// builder error.
func (s *Spec) Wire() (wire.QuerySpec, error) {
	if s.Err != nil {
		return wire.QuerySpec{}, s.Err
	}
	w := wire.QuerySpec{Table: s.Table, Opts: optsToWire(s.Opts)}
	for _, c := range s.Conds {
		w.Preds = append(w.Preds, wire.PredSpec{
			Col: c.Col, Kind: predToWire[c.P.kind], A: argToWire(c.P.a), B: argToWire(c.P.b)})
	}
	for _, j := range s.Joins {
		w.Joins = append(w.Joins, wire.JoinSpec{
			Table: j.Table, LeftCol: j.LeftCol, RightCol: j.RightCol, Opts: optsToWire(j.Opts)})
	}
	if s.HasSel {
		w.Select = append([]string(nil), s.Sel...)
		w.HasSel = true
	}
	if s.HasAgg {
		w.GroupCol = s.Group
		for _, a := range s.Aggs {
			// The output name always travels, so the decoded aggregate
			// reproduces even a defaulted name ("sum_col", "count").
			w.Aggs = append(w.Aggs, wire.AggSpec{Kind: aggToWire[a.kind], Col: a.col, As: a.name})
		}
		w.HasAgg = true
	}
	if s.HasOrd {
		w.OrderCol = s.Order
		w.HasOrd = true
	}
	if s.HasLim {
		w.Limit = argToWire(s.Limit)
		w.HasLim = true
	}
	return w, nil
}

// FromWire decodes a wire spec through the builder's own validation,
// so a decoded query is exactly the one the same builder calls would
// record. Input from outside the program may carry out-of-range kind
// bytes; they land in Err as a malformed-request error, which
// compiling the spec reports like any other builder error.
func FromWire(w *wire.QuerySpec) Spec {
	s := Spec{Table: w.Table, Opts: optsFromWire(w.Opts)}
	for _, p := range w.Preds {
		kind, ok := predFromWire[p.Kind]
		if !ok {
			s.fail(fmt.Errorf("%w: Where(%q): predicate kind %d", wire.ErrMalformed, p.Col, p.Kind))
			continue
		}
		b := Arg{}
		if kind == plan.KindBetween {
			b = argFromWire(p.B)
		}
		s.where(p.Col, pred(kind, argFromWire(p.A), b))
	}
	for _, j := range w.Joins {
		s.Joins = append(s.Joins, Join{Table: j.Table, LeftCol: j.LeftCol, RightCol: j.RightCol, Opts: optsFromWire(j.Opts)})
	}
	if w.HasSel {
		s.selectCols(w.Select)
	}
	if w.HasAgg {
		aggs := make([]Agg, 0, len(w.Aggs))
		for _, a := range w.Aggs {
			ctor, ok := aggFromWire[a.Kind]
			if !ok {
				s.fail(fmt.Errorf("%w: GroupBy: aggregate kind %d", wire.ErrMalformed, a.Kind))
				continue
			}
			agg := ctor(a.Col)
			if a.As != "" {
				agg = agg.As(a.As)
			}
			aggs = append(aggs, agg)
		}
		s.groupBy(w.GroupCol, aggs)
	}
	if w.HasOrd {
		s.orderBy(w.OrderCol)
	}
	if w.HasLim {
		s.limit(argFromWire(w.Limit))
	}
	return s
}

// argToWire converts a literal-or-param argument.
func argToWire(a Arg) wire.ArgSpec { return wire.ArgSpec{Param: a.param, Lit: a.lit} }

// argFromWire goes through Param, so a forged parameter name is
// rejected exactly as a local one would be.
func argFromWire(a wire.ArgSpec) Arg {
	if a.Param != "" {
		return Param(a.Param)
	}
	return Arg{lit: a.Lit}
}

func optsToWire(o ScanOptions) wire.OptsSpec {
	return wire.OptsSpec{
		Path:              byte(o.Path),
		Policy:            byte(o.Policy),
		Trigger:           byte(o.Trigger),
		Ordered:           o.Ordered,
		EstimatedRows:     o.EstimatedRows,
		SLABound:          o.SLABound,
		MaxRegionPages:    o.MaxRegionPages,
		ResultCacheBudget: o.ResultCacheBudget,
		Parallelism:       int32(o.Parallelism),
	}
}

func optsFromWire(o wire.OptsSpec) ScanOptions {
	return ScanOptions{
		Path:              AccessPath(o.Path),
		Policy:            core.Policy(o.Policy),
		Trigger:           core.Trigger(o.Trigger),
		Ordered:           o.Ordered,
		EstimatedRows:     o.EstimatedRows,
		SLABound:          o.SLABound,
		MaxRegionPages:    o.MaxRegionPages,
		ResultCacheBudget: o.ResultCacheBudget,
		Parallelism:       int(o.Parallelism),
	}
}
