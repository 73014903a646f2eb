package compliance

import (
	"encoding/binary"
	"strconv"

	"github.com/datacase/datacase/internal/core"
)

// The retention sweeper is the enforcement half of G17: records whose
// retention deadline (CreatedAt + TTL) has passed are erased under the
// profile's erasure grounding, so the deadline invariant holds without
// waiting for a subject to ask. It is the automation §6 of the paper
// calls for ("a comprehensive tool that can be retrofitted on any
// non-compliant system").

// SweepReport describes one retention sweep.
type SweepReport struct {
	// Scanned is the number of live records inspected.
	Scanned int
	// Erased is the number of expired records erased.
	Erased int
	// Cascaded is the number of derived records removed by the strong
	// grounding's cascade during the sweep.
	Cascaded uint64
}

// SweepExpired scans the table and erases every record whose retention
// deadline has passed. The erasures run under the profile's grounding
// (including log erasure and dependent cascade for P_SYS) and are
// recorded as regulation-required actions.
func (db *DB) SweepExpired() (SweepReport, error) {
	// The deadline scan is a read (shared lock); the erasures below
	// re-acquire the exclusive lock per record, so concurrent traffic
	// interleaves with a long sweep instead of stalling behind it.
	db.mu.RLock()
	now := db.clock.Tick()
	var rep SweepReport
	var expired []string
	db.data.SeqScan(func(k, v []byte) bool {
		rep.Scanned++
		if deadline, ok := metaDeadline(v); ok && int64(now) > deadline {
			expired = append(expired, string(k))
		}
		return true
	})
	cascadesBefore := db.counters.cascadeDeletes.Load()
	db.mu.RUnlock()

	for _, key := range expired {
		db.mu.Lock()
		err := db.deleteDataLocked(EntitySystem, key)
		db.mu.Unlock()
		if err != nil {
			// Already gone (e.g. removed by an earlier cascade in this
			// sweep): not an error for the sweeper.
			continue
		}
		rep.Erased++
	}
	rep.Cascaded = db.counters.cascadeDeletes.Load() - cascadesBefore
	return rep, nil
}

// metaDeadline extracts CreatedAt + TTL from an encoded row without a
// full decode (fields 2 and 5 of the metadata block).
func metaDeadline(row []byte) (int64, bool) {
	if len(row) < 2 {
		return 0, false
	}
	ml := int(binary.BigEndian.Uint16(row[:2]))
	if len(row) < 2+ml {
		return 0, false
	}
	meta := row[2 : 2+ml]
	var fields [6][]byte
	n := 0
	start := 0
	for i := 0; i <= len(meta) && n < 6; i++ {
		if i == len(meta) || meta[i] == '|' {
			fields[n] = meta[start:i]
			n++
			start = i + 1
		}
	}
	if n != 6 {
		return 0, false
	}
	ttl, err := strconv.ParseInt(string(fields[2]), 10, 64)
	if err != nil {
		return 0, false
	}
	created, err := strconv.ParseInt(string(fields[5]), 10, 64)
	if err != nil {
		return 0, false
	}
	return created + ttl, true
}

// AdvanceClock moves the DB's logical clock forward (tests and retention
// demos; real deployments tick through operations). The jump is noted
// in the WAL so a crash cannot rewind it and reopen the deadlines it
// made pass.
func (db *DB) AdvanceClock(d int64) core.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	now := db.clock.Advance(d)
	db.noteClockLocked(true)
	return now
}
