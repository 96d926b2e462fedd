package qspec

import (
	"fmt"
	"math"
	"strings"

	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// canonPred returns the predicate in canonical constant form: a
// parameter-free predicate folds into its half-open Between range
// right here, so Eq(5) and Between(5, 6) canonicalise to the same
// shape and share one cached template; a parameterized predicate
// keeps its comparison kind for bind-time folding.
func canonPred(p Pred) (kind plan.PredKind, a, b Arg) {
	if p.a.param == "" && (p.kind != plan.KindBetween || p.b.param == "") {
		lo, hi := plan.FoldRange(p.kind, p.a.lit, p.b.lit)
		return plan.KindBetween, Arg{lit: lo}, Arg{lit: hi}
	}
	return p.kind, p.a, p.b
}

// forEachArg visits every bind-time argument of the query in canonical
// order: the Where conjuncts in call order (canonical form, lo then hi
// for Between), then the Limit count. structKey serialises arguments
// in this order, Lits collects them in this order and Values assigns
// literal slots in this order — the walks must never diverge, or a
// cached template would bind another query's literals to the wrong
// predicates.
func (s *Spec) forEachArg(f func(a Arg)) {
	for _, c := range s.Conds {
		kind, a, b := canonPred(c.P)
		f(a)
		if kind == plan.KindBetween {
			f(b)
		}
	}
	if s.HasLim {
		f(s.Limit)
	}
}

// Lits extracts the query's literal argument values, in slot order.
func (s *Spec) Lits() []int64 {
	var lits []int64
	s.forEachArg(func(a Arg) {
		if a.param == "" {
			lits = append(lits, a.lit)
		}
	})
	return lits
}

// CondValues is one Where conjunct in canonical bind form.
type CondValues struct {
	Kind plan.PredKind
	A, B plan.Value // B only for KindBetween
}

// Values are the bind-time scalar sources of a query's template.
type Values struct {
	Conds  []CondValues // one per Where conjunct, in call order
	Limit  plan.Value   // meaningful when the spec has a Limit
	Params []string     // parameter names in first-use order
	Slots  int          // literal slots (len(Lits()))
}

// Values assigns bind-time plan.Values in canonical argument order:
// literals take positional slots, parameters are registered by name.
func (s *Spec) Values() Values {
	var v Values
	seen := map[string]bool{}
	val := func(a Arg) plan.Value {
		if a.param != "" {
			if !seen[a.param] {
				seen[a.param] = true
				v.Params = append(v.Params, a.param)
			}
			return plan.Value{Param: a.param}
		}
		pv := plan.Value{Slot: v.Slots}
		v.Slots++
		return pv
	}
	v.Conds = make([]CondValues, len(s.Conds))
	for i, c := range s.Conds {
		kind, a, b := canonPred(c.P)
		v.Conds[i] = CondValues{Kind: kind, A: val(a)}
		if kind == plan.KindBetween {
			v.Conds[i].B = val(b)
		}
	}
	if s.HasLim {
		v.Limit = val(s.Limit)
	}
	return v
}

// FoldRange folds the conjuncts on one column into a single half-open
// range, resolving parameters from b (shard pruning). Conjuncts with
// unbound parameters are skipped — pruning just gets more
// conservative.
func FoldRange(conds []Cond, col string, b map[string]int64) tuple.RangePred {
	resolve := func(a Arg) (int64, bool) {
		if a.param != "" {
			v, ok := b[a.param]
			return v, ok
		}
		return a.lit, true
	}
	pr := tuple.RangePred{Lo: math.MinInt64, Hi: math.MaxInt64}
	for _, c := range conds {
		if c.Col != col {
			continue
		}
		kind, aArg, bArg := canonPred(c.P)
		av, ok := resolve(aArg)
		if !ok {
			continue
		}
		var bv int64
		if kind == plan.KindBetween {
			if bv, ok = resolve(bArg); !ok {
				continue
			}
		}
		lo, hi := plan.FoldRange(kind, av, bv)
		pr = pr.Intersect(tuple.RangePred{Lo: lo, Hi: hi})
	}
	return pr
}

// CanonicalKey serialises the query's structure — tables, joins,
// conjunct columns and comparison kinds, projection, grouping,
// ordering, options — with every literal constant replaced by a
// positional marker. Two queries with the same key compile to the
// same template and differ only in the literal vector they bind, which
// is exactly what makes the DB-wide plan cache safe. Named parameters
// keep their names (the bind phase resolves them by name, not
// position), so a prepared query and its literal twin get distinct
// plan-cache keys.
func (s *Spec) CanonicalKey() string { return s.structKey(false) }

// SemanticKey is CanonicalKey with the parameter/literal distinction
// erased: every constant renders as the same positional marker. Two
// queries with the same semantic key and the same resolved constant
// vector compute the same result, whichever mix of literals and
// parameters expressed it — the property the result-cache tier keys
// on.
func (s *Spec) SemanticKey() string { return s.structKey(true) }

func (s *Spec) structKey(blind bool) string {
	var sb strings.Builder
	arg := func(a Arg) {
		if a.param != "" && !blind {
			sb.WriteByte('$')
			sb.WriteString(a.param)
		} else {
			sb.WriteByte('?')
		}
	}
	sb.WriteString("v1|")
	fmt.Fprintf(&sb, "%q", s.Table)
	for _, j := range s.Joins {
		fmt.Fprintf(&sb, "|J:%q,%q,%q,%+v", j.Table, j.LeftCol, j.RightCol, j.Opts)
	}
	for _, c := range s.Conds {
		kind, a, b := canonPred(c.P)
		if blind {
			// Every predicate folds to a half-open [lo, hi) range at
			// bind time, so the semantic shape of any conjunct is a
			// two-endpoint Between regardless of which comparison
			// spelled it — Eq(x) and Between(x, x+1) must share.
			fmt.Fprintf(&sb, "|W:%q,%d,?,?", c.Col, int(plan.KindBetween))
			continue
		}
		fmt.Fprintf(&sb, "|W:%q,%d,", c.Col, int(kind))
		arg(a)
		if kind == plan.KindBetween {
			sb.WriteByte(',')
			arg(b)
		}
	}
	if s.HasSel {
		sb.WriteString("|S:")
		for i, c := range s.Sel {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q", c)
		}
	}
	if s.HasAgg {
		fmt.Fprintf(&sb, "|G:%q", s.Group)
		for _, a := range s.Aggs {
			fmt.Fprintf(&sb, ",%q:%q:%d", a.name, a.col, int(a.kind))
		}
	}
	if s.HasOrd {
		fmt.Fprintf(&sb, "|O:%q", s.Order)
	}
	if s.HasLim {
		sb.WriteString("|L:")
		arg(s.Limit)
	}
	fmt.Fprintf(&sb, "|opts:%+v", s.Opts)
	return sb.String()
}
