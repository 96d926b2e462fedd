package main

import "slices"

// cursor is the result iterator every engine surface shares:
// *smoothscan.Rows, *smoothscan.ShardedRows and *ssclient.Rows.
type cursor interface {
	Next() bool
	Row() []int64
	Columns() []string
	Err() error
	Close() error
}

// spanNames are the span names one surface records for a read.
type spanNames struct{ open, firstRow, drain string }

func surfaceSpans(layer string) spanNames {
	return spanNames{open: layer + ".open", firstRow: layer + ".first_row", drain: layer + ".drain"}
}

// read opens a result with open and drains it into a digest, recording
// the open, first-row and drain spans under parent. orderBy names a
// column the rows must arrive sorted on ("" for none). failed is an
// engine error (a failed operation); bad is an oracle mismatch.
func read(tr *spanBuf, op int64, parent int32, sn spanNames, orderBy string, open func() (cursor, error)) (cur cursor, d digest, failed, bad error) {
	s := tr.begin(sn.open, op, parent)
	cur, failed = open()
	tr.end(s)
	if failed != nil {
		return nil, d, failed, nil
	}
	orderCol := -1
	if orderBy != "" {
		if orderCol = slices.Index(cur.Columns(), orderBy); orderCol < 0 {
			cur.Close()
			return nil, d, nil, mismatch("ordered result lacks column %q", orderBy)
		}
	}
	s = tr.begin(sn.firstRow, op, parent)
	more := cur.Next()
	tr.end(s)
	s = tr.begin(sn.drain, op, parent)
	prev := int64(-1 << 63)
	for ; more; more = cur.Next() {
		r := cur.Row()
		if orderCol >= 0 {
			if r[orderCol] < prev {
				bad = mismatch("row %d out of %s order: %d after %d", d.rows, orderBy, r[orderCol], prev)
			}
			prev = r[orderCol]
		}
		d.add(r)
	}
	failed = cur.Err()
	if err := cur.Close(); failed == nil {
		failed = err
	}
	tr.end(s)
	return cur, d, failed, bad
}

// check compares a drained result with the oracle's expectation.
func check(what string, got, want digest) error {
	if got != want {
		return mismatch("%s: got %d rows (digest %016x), want %d rows (digest %016x)", what, got.rows, got.sum, want.rows, want.sum)
	}
	return nil
}
