package qspec

import (
	"bytes"
	"testing"

	"smoothscan/internal/wire"
)

// testQuery is a builder with no engine behind it.
type testQuery struct{ Builder[*testQuery] }

func newTestQuery(table string) *testQuery {
	q := &testQuery{}
	q.Builder = NewBuilder(q, table)
	return q
}

// FuzzQuerySpec drives the wire decode of a query spec — input from
// outside the program — with arbitrary bytes. Decoding never panics,
// and a spec that decodes without a builder error re-encodes to bytes
// that decode to the same spec: decode → encode → decode is stable.
func FuzzQuerySpec(f *testing.F) {
	for _, q := range []*testQuery{
		newTestQuery("t").Where("val", Between(1, Param("hi"))).Where("cat", Eq(7)).
			Join("d", "val", "d_id").Select("val", "cat").
			GroupBy("cat", Sum("val"), Count().As("n"), Min("val"), Max("val")).
			OrderBy("cat").Limit(10).WithOptions(ScanOptions{Path: PathIndex, Parallelism: 2}),
		newTestQuery("t").Where("val", Lt(Param("x"))).Where("val", Ge(-3)).
			JoinWithOptions("d", "val", "d_id", ScanOptions{Ordered: true}).Limit(Param("n")),
		newTestQuery("t").Where("val", Gt(5)).Where("val", Le(9)),
	} {
		w, err := Of(&q.Builder).Wire()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Query{Spec: w}.Marshal())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := wire.DecodeQuery(payload)
		if err != nil {
			return
		}
		s := FromWire(&m.Spec)
		w, err := s.Wire()
		if err != nil {
			return // decoded to a builder error: nothing to re-encode
		}
		enc := wire.Query{Spec: w}.Marshal()
		m2, err := wire.DecodeQuery(enc)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		s2 := FromWire(&m2.Spec)
		w2, err := s2.Wire()
		if err != nil {
			t.Fatalf("re-decoded spec carries an error: %v", err)
		}
		if enc2 := (wire.Query{Spec: w2}).Marshal(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\n%x\n%x", enc, enc2)
		}
		if k1, k2 := s.CanonicalKey(), s2.CanonicalKey(); k1 != k2 {
			t.Fatalf("canonical key not stable:\n%s\n%s", k1, k2)
		}
	})
}
