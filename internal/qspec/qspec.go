// Package qspec is the one definition of a query's structure: the
// predicate, aggregate and argument types the builders accept, the
// builder state (Spec), the chaining methods every query surface
// shares (Builder), the canonical shape keys the plan and result
// caches index by, and the conversion to and from the wire.
//
// The root smoothscan package re-exports the types through aliases;
// smoothscan.Query, smoothscan.ShardedQuery and ssclient.Query embed
// Builder and add only their own Run/Explain/Prepare.
package qspec

import (
	"errors"
	"fmt"
	"math"

	"smoothscan/internal/core"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
)

// ErrArgType is returned (wrapped) when a predicate constructor or
// Limit receives an argument that is neither an integer nor a Param.
var ErrArgType = errors.New("smoothscan: unsupported argument type")

// ErrBuild is returned (wrapped) for a builder call that can never
// compile, whatever the schema: a clause set twice, Select or GroupBy
// without operands, a negative literal Limit.
var ErrBuild = errors.New("smoothscan: invalid query")

// Arg is one argument of a predicate constructor or Limit: an int64
// literal, or a named parameter placeholder created by Param. Integer
// literals convert implicitly (the constructors accept any integer
// kind); parameters get their value at execution time from a bind set,
// which is what lets one prepared statement run many times with
// different constants.
type Arg struct {
	param string
	lit   int64
	err   error
}

// Param is a named placeholder usable anywhere a literal goes: in the
// Where predicate constructors (Between, Eq, Lt, Le, Gt, Ge) and in
// Limit. A query containing parameters must be prepared; running it
// directly returns ErrUnboundParam. Names consist of letters, digits
// and underscores.
func Param(name string) Arg {
	if name == "" {
		return Arg{err: fmt.Errorf("smoothscan: empty parameter name")}
	}
	for _, r := range name {
		if !(r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return Arg{err: fmt.Errorf("smoothscan: parameter name %q: only letters, digits and underscores are allowed", name)}
		}
	}
	return Arg{param: name}
}

// asArg converts a constructor argument: an Arg passes through, any
// integer kind becomes a literal, everything else is ErrArgType.
func asArg(v any) Arg {
	switch x := v.(type) {
	case Arg:
		return x
	case int:
		return Arg{lit: int64(x)}
	case int64:
		return Arg{lit: x}
	case int32:
		return Arg{lit: int64(x)}
	case int16:
		return Arg{lit: int64(x)}
	case int8:
		return Arg{lit: int64(x)}
	case uint8:
		return Arg{lit: int64(x)}
	case uint16:
		return Arg{lit: int64(x)}
	case uint32:
		return Arg{lit: int64(x)}
	case uint:
		if uint64(x) > math.MaxInt64 {
			return Arg{err: fmt.Errorf("%w: %d overflows int64", ErrArgType, x)}
		}
		return Arg{lit: int64(x)}
	case uint64:
		if x > math.MaxInt64 {
			return Arg{err: fmt.Errorf("%w: %d overflows int64", ErrArgType, x)}
		}
		return Arg{lit: int64(x)}
	default:
		return Arg{err: fmt.Errorf("%w: %T (want an integer or Param)", ErrArgType, v)}
	}
}

// Pred is a predicate on one integer column: a comparison whose
// argument(s) fold into a half-open value range [lo, hi) when the
// query is compiled (for parameters, when the statement binds them).
// Predicates are combined conjunctively by Where; several predicates
// on the same column intersect into one range.
//
// Because ranges are half-open over int64, a predicate can never match
// the value math.MaxInt64 itself; the engine's data generators and
// workloads never store it.
type Pred struct {
	kind plan.PredKind
	a, b Arg
	err  error
}

// pred assembles a Pred, recording the first bad argument.
func pred(kind plan.PredKind, a, b Arg) Pred {
	err := a.err
	if err == nil {
		err = b.err
	}
	return Pred{kind: kind, a: a, b: b, err: err}
}

// Between matches lo <= v < hi.
func Between(lo, hi any) Pred { return pred(plan.KindBetween, asArg(lo), asArg(hi)) }

// Eq matches v == x.
func Eq(x any) Pred { return pred(plan.KindEq, asArg(x), Arg{}) }

// Lt matches v < x.
func Lt(x any) Pred { return pred(plan.KindLt, asArg(x), Arg{}) }

// Le matches v <= x.
func Le(x any) Pred { return pred(plan.KindLe, asArg(x), Arg{}) }

// Gt matches v > x.
func Gt(x any) Pred { return pred(plan.KindGt, asArg(x), Arg{}) }

// Ge matches v >= x.
func Ge(x any) Pred { return pred(plan.KindGe, asArg(x), Arg{}) }

// Agg is an aggregate expression for GroupBy. Build one with Sum,
// Count, Min or Max, and rename its output column with As.
type Agg struct {
	name string
	col  string
	kind exec.AggKind
}

// Sum aggregates the sum of col per group; the output column is named
// "sum_<col>".
func Sum(col string) Agg { return Agg{name: "sum_" + col, col: col, kind: exec.AggSum} }

// Count counts the rows of each group; the output column is named
// "count".
func Count() Agg { return Agg{name: "count", kind: exec.AggCount} }

// Min aggregates the minimum of col per group; the output column is
// named "min_<col>".
func Min(col string) Agg { return Agg{name: "min_" + col, col: col, kind: exec.AggMin} }

// Max aggregates the maximum of col per group; the output column is
// named "max_<col>".
func Max(col string) Agg { return Agg{name: "max_" + col, col: col, kind: exec.AggMax} }

// As renames the aggregate's output column.
func (a Agg) As(name string) Agg { a.name = name; return a }

// AggOf exposes an aggregate's parts: output name, input column ("" for
// Count) and kind.
func AggOf(a Agg) (name, col string, kind exec.AggKind) { return a.name, a.col, a.kind }

// AccessPath selects the scan implementation.
type AccessPath int

// Access paths a query's table access can use.
const (
	PathSmooth AccessPath = iota
	PathAuto
	PathFull
	PathIndex
	PathSort
	PathSwitch
)

func (p AccessPath) String() string {
	switch p {
	case PathSmooth:
		return "smooth"
	case PathAuto:
		return "auto"
	case PathFull:
		return "full"
	case PathIndex:
		return "index"
	case PathSort:
		return "sort"
	case PathSwitch:
		return "switch"
	default:
		return fmt.Sprintf("AccessPath(%d)", int(p))
	}
}

// ScanOptions configures one table access of a query.
type ScanOptions struct {
	// Path selects the access path (default PathSmooth).
	Path AccessPath
	// Policy is the Smooth Scan morphing policy (default Elastic).
	Policy core.Policy
	// Trigger is the Smooth Scan morphing trigger (default Eager).
	Trigger core.Trigger
	// Ordered requests output in index-key order. Smooth, index and
	// sort scans deliver it natively (sort scan via a posterior
	// sort); full and switch scans return an error when Ordered is
	// set, as they cannot.
	Ordered bool
	// EstimatedRows is the optimizer's cardinality estimate, used by
	// the OptimizerDriven trigger and the PathSwitch threshold. When
	// zero, the estimate comes from table statistics (Analyze) or the
	// uniformity assumption.
	EstimatedRows int64
	// SLABound is the operator cost bound for the SLADriven trigger,
	// in cost units.
	SLABound float64
	// MaxRegionPages caps the Smooth Scan morphing region (default
	// 2048 pages = 16 MB, the paper's optimum).
	MaxRegionPages int64
	// ResultCacheBudget bounds the ordered Smooth Scan's Result Cache
	// resident memory in bytes; beyond it, far partitions spill to
	// overflow files (charged as sequential I/O). Zero = unlimited.
	// A parallel scan splits the budget evenly across its workers.
	ResultCacheBudget int64
	// Parallelism is the number of scan workers. Values <= 1 select
	// the classic serial operator. For PathSmooth and PathFull the
	// table's heap pages are partitioned into that many disjoint
	// shards, one independently-morphing worker each, merged through
	// an unordered fan-in (or a key-ordered merge when Ordered is
	// set); the result rows are exactly those of the serial scan. The
	// other access paths ignore the knob and run serially. The value
	// is clamped to the table's page count and to the engine's
	// MaxParallelism.
	Parallelism int
}

// Cond is one Where clause before compilation.
type Cond struct {
	Col string
	P   Pred
}

// Join is one Join call before compilation.
type Join struct {
	Table    string
	LeftCol  string
	RightCol string
	Opts     ScanOptions
}

// Spec is a query's structure as the builder methods recorded it. Err
// holds the first builder error; compiling a Spec with Err set returns
// it.
type Spec struct {
	Table  string
	Conds  []Cond
	Joins  []Join
	Sel    []string
	HasSel bool
	Group  string
	Aggs   []Agg
	HasAgg bool
	Order  string
	HasOrd bool
	Limit  Arg
	HasLim bool
	Opts   ScanOptions
	Err    error
}

// fail records the first builder error.
func (s *Spec) fail(err error) {
	if s.Err == nil {
		s.Err = err
	}
}

func (s *Spec) where(col string, p Pred) {
	if p.err != nil {
		s.fail(fmt.Errorf("Where(%q): %w", col, p.err))
		return
	}
	s.Conds = append(s.Conds, Cond{Col: col, P: p})
}

func (s *Spec) selectCols(cols []string) {
	if s.HasSel {
		s.fail(fmt.Errorf("%w: Select set twice", ErrBuild))
		return
	}
	if len(cols) == 0 {
		s.fail(fmt.Errorf("%w: Select requires at least one column", ErrBuild))
		return
	}
	s.Sel = append([]string(nil), cols...)
	s.HasSel = true
}

func (s *Spec) groupBy(col string, aggs []Agg) {
	if s.HasAgg {
		s.fail(fmt.Errorf("%w: GroupBy set twice", ErrBuild))
		return
	}
	if len(aggs) == 0 {
		s.fail(fmt.Errorf("%w: GroupBy requires at least one aggregate", ErrBuild))
		return
	}
	s.Group = col
	s.Aggs = append([]Agg(nil), aggs...)
	s.HasAgg = true
}

func (s *Spec) orderBy(col string) {
	if s.HasOrd {
		s.fail(fmt.Errorf("%w: OrderBy set twice", ErrBuild))
		return
	}
	s.Order = col
	s.HasOrd = true
}

func (s *Spec) limit(a Arg) {
	if a.err != nil {
		s.fail(fmt.Errorf("Limit: %w", a.err))
		return
	}
	if a.param == "" && a.lit < 0 {
		s.fail(fmt.Errorf("%w: negative limit %d", ErrBuild, a.lit))
		return
	}
	s.Limit = a
	s.HasLim = true
}

// Clone deep-copies the spec, so a prepared statement does not alias
// slices its builder keeps appending to.
func (s *Spec) Clone() *Spec {
	cp := *s
	cp.Conds = append([]Cond(nil), s.Conds...)
	cp.Joins = append([]Join(nil), s.Joins...)
	cp.Sel = append([]string(nil), s.Sel...)
	cp.Aggs = append([]Agg(nil), s.Aggs...)
	return &cp
}

// Builder carries a Spec and the chaining methods that record into it.
// Q is the embedding query type: each method returns the outer value,
// so chains keep their concrete type (a *smoothscan.Query chains to a
// *smoothscan.Query). Builder methods record the first error, which
// the embedding type's Run/Explain/Prepare report, so call sites can
// chain without per-call checks. Initialise one with NewBuilder.
type Builder[Q any] struct {
	self Q
	spec Spec
}

// NewBuilder starts a builder over table whose methods return self.
func NewBuilder[Q any](self Q, table string) Builder[Q] {
	return Builder[Q]{self: self, spec: Spec{Table: table}}
}

// Of returns the builder's spec, for the embedding type's compile and
// encode steps.
func Of[Q any](b *Builder[Q]) *Spec { return &b.spec }

// Where adds a conjunctive predicate on a column. Multiple Where calls
// compose with AND; several predicates on the same column intersect
// into one range. The optimizer picks the most selective indexed
// predicate to drive the scan; the remaining conjuncts become residual
// predicates evaluated inside the page decode wherever the chosen
// access path supports it. On a sharded query, predicates on the
// partition column additionally prune shards.
func (b *Builder[Q]) Where(col string, p Pred) Q {
	b.spec.where(col, p)
	return b.self
}

// Join adds an inner equi-join with another table:
// left.leftCol = right.rightCol, where leftCol is a column of the
// query's output so far (the driving table, or any previously joined
// table) and rightCol is a column of the newly joined table. The
// output schema is the left columns followed by the right table's
// (colliding right column names get an "r." prefix).
//
// Where predicates may reference columns of any joined table — each
// conjunct is pushed beneath the join into the access path of the one
// table that has the column (ambiguous names are an error). Each
// input's access path is planned independently from its own
// predicates and ScanOptions — the adaptive Smooth Scan by default,
// any forced path or the cost-based optimizer (PathAuto) via
// JoinWithOptions — and the smaller estimated input lands on the hash
// build side. The first join runs as a merge join instead when both
// its base-table inputs already arrive ordered by their join columns
// (index scans, or Ordered smooth/sort scans driven by the join
// column); later stages of a chain always hash, since a join output's
// ordering is not tracked. The joined table's scan uses default
// ScanOptions; use JoinWithOptions to configure it.
func (b *Builder[Q]) Join(table, leftCol, rightCol string) Q {
	b.spec.Joins = append(b.spec.Joins, Join{Table: table, LeftCol: leftCol, RightCol: rightCol})
	return b.self
}

// JoinWithOptions is Join with explicit ScanOptions for the joined
// table's access path (WithOptions only configures the driving table).
func (b *Builder[Q]) JoinWithOptions(table, leftCol, rightCol string, opts ScanOptions) Q {
	b.spec.Joins = append(b.spec.Joins, Join{Table: table, LeftCol: leftCol, RightCol: rightCol, Opts: opts})
	return b.self
}

// Select projects the output onto the named columns, in the given
// order. Without Select every table column is returned. When GroupBy
// is present, its group and aggregate columns are resolved against the
// selected columns.
func (b *Builder[Q]) Select(cols ...string) Q {
	b.spec.selectCols(cols)
	return b.self
}

// GroupBy groups rows by a column and computes the aggregates per
// group. The output schema is the group column followed by one column
// per aggregate, ordered by ascending group key.
func (b *Builder[Q]) GroupBy(col string, aggs ...Agg) Q {
	b.spec.groupBy(col, aggs)
	return b.self
}

// OrderBy orders the output by the named column, ascending. The
// column must be part of the query output. When the order is already
// delivered — by an order-preserving access path on the driving
// column, or by GroupBy's key-ordered output — no sort operator is
// added; otherwise a posterior (external) sort is.
func (b *Builder[Q]) OrderBy(col string) Q {
	b.spec.orderBy(col)
	return b.self
}

// Limit caps the number of output rows; it accepts an integer or a
// Param placeholder. Limit(0) yields an empty result without touching
// the device.
func (b *Builder[Q]) Limit(n any) Q {
	b.spec.limit(asArg(n))
	return b.self
}

// WithOptions applies ScanOptions to the driving table access: access
// path, morphing policy and trigger, parallelism, cardinality
// estimate, SLA bound, Result Cache budget. The builder owns
// everything above the scan, the options configure the scan itself.
func (b *Builder[Q]) WithOptions(opts ScanOptions) Q {
	b.spec.Opts = opts
	return b.self
}
