package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/kvstore"
	"repro/internal/linear"
)

// keyPuts indexes one key's puts for the freshness checks.
type keyPuts struct {
	byEnd     []int   // acked put op indices, by answer time
	maxIssue  []int64 // maxIssue[k]: latest issue time among byEnd[:k+1]
	lastIssue int64   // latest issue time of any acked put
}

// indexPuts groups the acked puts among ops[:upto] by key.
func indexPuts(s *kvSchedule, recs []opRec, upto int) map[int32]*keyPuts {
	idx := make(map[int32]*keyPuts)
	for _, oi := range s.puts {
		if int(oi) >= upto {
			continue
		}
		r := recs[oi]
		if r.end == 0 || !r.ok {
			continue
		}
		k := s.ops[oi].key
		kp := idx[k]
		if kp == nil {
			kp = &keyPuts{}
			idx[k] = kp
		}
		kp.byEnd = append(kp.byEnd, int(oi))
	}
	for _, kp := range idx {
		sort.Slice(kp.byEnd, func(i, j int) bool { return recs[kp.byEnd[i]].end < recs[kp.byEnd[j]].end })
		kp.maxIssue = make([]int64, len(kp.byEnd))
		m := int64(math.MinInt64)
		for i, oi := range kp.byEnd {
			m = max(m, recs[oi].issue)
			kp.maxIssue[i] = m
		}
		kp.lastIssue = m
	}
	return idx
}

// newestIssueAckedBefore returns the latest issue time among puts acked
// before t (MinInt64 if none): a read issued at t must not return a put
// that ended before that put began.
func (kp *keyPuts) newestIssueAckedBefore(recs []opRec, t int64) int64 {
	if kp == nil {
		return math.MinInt64
	}
	n := sort.Search(len(kp.byEnd), func(i int) bool { return recs[kp.byEnd[i]].end >= t })
	if n == 0 {
		return math.MinInt64
	}
	return kp.maxIssue[n-1]
}

// writer decodes the put a stored or returned value came from and checks
// it byte for byte against what that put wrote.
func writer(s *kvSchedule, key int32, v []byte) (int, error) {
	if len(v) < 12 {
		return 0, fmt.Errorf("value of %d bytes carries no writer", len(v))
	}
	id := binary.BigEndian.Uint64(v[0:8])
	if id >= uint64(len(s.puts)) {
		return 0, fmt.Errorf("value names put %d of %d", id, len(s.puts))
	}
	oi := int(s.puts[id])
	if s.ops[oi].key != key {
		return 0, fmt.Errorf("value of key %s was put to key %s", s.keys[key], s.keys[s.ops[oi].key])
	}
	if !bytes.Equal(v, s.ops[oi].value) {
		return 0, fmt.Errorf("value of put %d is corrupted", id)
	}
	return oi, nil
}

// checkHistory checks every answered get among ops[:upto]: its value was
// put to that key before the get returned, and is not older than the
// newest put acked before the get was issued. It then runs the audit keys'
// histories through the linearizability checker.
func checkHistory(s *kvSchedule, recs []opRec, upto int, rep *report, label string) {
	idx := indexPuts(s, recs, upto)
	bad := 0
	for i := 0; i < upto; i++ {
		r := recs[i]
		op := s.ops[i]
		if op.kind != opGet || r.end == 0 || !r.ok {
			continue
		}
		kp := idx[op.key]
		floor := kp.newestIssueAckedBefore(recs, r.issue)
		var err error
		switch {
		case !r.found && floor != math.MinInt64:
			err = fmt.Errorf("not found, though a put was acked before it was issued")
		case r.found:
			var w int
			if w, err = writer(s, op.key, r.value); err != nil {
				break
			}
			wr := recs[w]
			switch {
			case wr.issue == 0 || wr.issue > r.end:
				err = fmt.Errorf("returned put %d, issued after the get returned", s.ops[w].putID)
			case wr.end != 0 && wr.ok && wr.end < floor:
				err = fmt.Errorf("returned put %d, older than a put acked before the get was issued", s.ops[w].putID)
			}
		}
		if err != nil {
			if bad < 5 {
				rep.fail("%s: get op %d on %s: %v", label, i, s.keys[op.key], err)
			}
			bad++
		}
	}
	if bad > 5 {
		rep.fail("%s: %d stale or invalid gets in all", label, bad)
	}
	auditLinearizable(s, recs, upto, rep, label)
}

// auditLinearizable runs each audit key's history through linear.Check.
// A key whose history holds a failed or unanswered op is skipped: its
// outcome is unknown, which the checker cannot express.
func auditLinearizable(s *kvSchedule, recs []opRec, upto int, rep *report, label string) {
	for _, key := range s.audit {
		var hist []linear.Op
		complete := true
		for i := 0; i < upto; i++ {
			op := s.ops[i]
			if op.key != key {
				continue
			}
			r := recs[i]
			if r.end == 0 || !r.ok {
				complete = false
				break
			}
			h := linear.Op{Kind: linear.Read, Start: r.issue, End: r.end, Found: r.found}
			if op.kind == opPut {
				h = linear.Op{Kind: linear.Write, Start: r.issue, End: r.end, Value: fmt.Sprint(op.putID)}
			} else if r.found {
				w, err := writer(s, key, r.value)
				if err != nil {
					complete = false // already reported by checkHistory
					break
				}
				h.Value = fmt.Sprint(s.ops[w].putID)
			}
			hist = append(hist, h)
		}
		if complete && len(hist) > 0 && !linear.Check(hist) {
			rep.fail("%s: history of audit key %s (%d ops) is not linearizable", label, s.keys[key], len(hist))
		}
	}
}

// checkDurable checks the reopened stores of a stopped durable cluster:
// for every key with an acked put, the highest version across the stores
// holds a put's exact value, and that put was not superseded by a later
// acked put (it did not end before an acked put on the key began).
func checkDurable(s *kvSchedule, recs []opRec, stores []*kvstore.Store, rep *report) {
	idx := indexPuts(s, recs, len(recs))
	bad := 0
	keys := make([]int32, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		kp := idx[k]
		var best kvstore.Version
		var val []byte
		for _, st := range stores {
			if v, b, ok := st.Read(s.keys[k]); ok && best.Less(v) {
				best, val = v, b
			}
		}
		var err error
		if val == nil {
			err = fmt.Errorf("no replica holds it after reopening")
		} else if w, werr := writer(s, k, val); werr != nil {
			err = werr
		} else if wr := recs[w]; wr.end != 0 && wr.ok && wr.end < kp.lastIssue {
			err = fmt.Errorf("holds put %d, superseded by a later acked put", s.ops[w].putID)
		}
		if err != nil {
			if bad < 5 {
				rep.fail("after reopening, key %s: %v", s.keys[k], err)
			}
			bad++
		}
	}
	if bad > 5 {
		rep.fail("after reopening: %d keys lost their newest acked put", bad)
	}
	fmt.Printf("durability check: %d keys with acked puts, %d bad\n", len(keys), bad)
}
