package compliance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/wal"
)

// This file implements the data-subject rights of Figure 1's Storage
// category on top of the profiles: access (G15), portability (G20),
// consent withdrawal (G7(3)) and objection (G21). Each right is an
// ordinary policy-checked, logged operation — rights are data
// processing too.

// SubjectRecord is one record returned by a subject-access request.
type SubjectRecord struct {
	Key     string   `json:"key"`
	Meta    Metadata `json:"metadata"`
	Payload []byte   `json:"payload"`
}

// subjectAccessLocked answers a subject-access request (GDPR Art. 15):
// every record whose data subject matches, with metadata and
// (decrypted) payload. The lookup is a table scan — subjects are not
// the primary key — and each returned record is individually
// policy-checked. Subject access is a read: the caller holds the
// read-path (shared) lock, so a burst of Art.-15 requests does not
// serialize the shard.
func (db *DB) subjectAccessLocked(subject string) ([]SubjectRecord, error) {
	now := db.clock.Tick()
	want := []byte(subject)
	type hit struct {
		key []byte
		row []byte
	}
	var hits []hit
	db.data.SeqScan(func(k, v []byte) bool {
		if bytes.Equal(metaSubject(v), want) {
			hits = append(hits, hit{
				key: append([]byte(nil), k...),
				row: append([]byte(nil), v...),
			})
		}
		return true
	})
	var out []SubjectRecord
	for _, h := range hits {
		unit := core.UnitID(h.key)
		d := db.policies.Allow(policy.Request{
			Unit: unit, Subject: core.EntityID(subject),
			Entity: EntitySubjectSvc, Purpose: PurposeSubjectAccess,
			Action: core.ActionRead, At: now,
		})
		if !d.Allowed {
			db.counters.denials.Add(1)
			continue
		}
		rec, err := decodeRecord(h.row)
		if err != nil {
			return nil, err
		}
		payload, err := db.unprotect(rec.Blob)
		if err != nil {
			return nil, err
		}
		out = append(out, SubjectRecord{Key: string(h.key), Meta: rec.Meta, Payload: payload})
		tuple := core.HistoryTuple{
			Unit: unit, Purpose: PurposeSubjectAccess, Entity: EntitySubjectSvc,
			Action: core.Action{Kind: core.ActionRead, SystemAction: "SAR"}, At: now,
		}
		if db.history != nil {
			db.history.MustAppend(tuple)
		}
	}
	db.logOp(core.HistoryTuple{
		Unit: core.UnitID("sar:" + subject), Purpose: PurposeSubjectAccess,
		Entity: EntitySubjectSvc,
		Action: core.Action{Kind: core.ActionRead, SystemAction: "SAR", RequiredByRegulation: true},
		At:     now,
	}, "SUBJECT ACCESS REQUEST", []byte(fmt.Sprintf("%d records", len(out))), "", nil)
	return out, nil
}

// exportPortableLocked implements data portability (GDPR Art. 20): the
// subject's records in a structured, machine-readable format. Caller
// holds the read-path lock.
func (db *DB) exportPortableLocked(subject string) ([]byte, error) {
	recs, err := db.subjectAccessLocked(subject)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(struct {
		Subject string          `json:"subject"`
		Records []SubjectRecord `json:"records"`
	}{Subject: subject, Records: recs}, "", "  ")
}

// eraseSubjectLocked exercises the right to erasure at subject
// granularity (GDPR Art. 17 for a whole account): every record whose
// data subject matches is erased under the profile's grounding,
// atomically — the scan and the erasures happen under one lock
// acquisition, so a record collected concurrently either predates the
// request (and is erased) or postdates it entirely. It returns how many
// records were erased directly (cascaded dependents are counted in
// Counters().CascadeDeletes, as elsewhere). Caller holds mu:
// ShardedDB.EraseSubject calls it after validating the subject's
// routing under this shard's lock, so an erase racing a split always
// runs against the shard that actually holds the subject's records.
func (db *DB) eraseSubjectLocked(entity core.EntityID, subject string) (int, error) {
	want := []byte(subject)
	var keys []string
	db.data.SeqScan(func(k, v []byte) bool {
		if bytes.Equal(metaSubject(v), want) {
			keys = append(keys, string(k))
		}
		return true
	})
	if len(keys) > 0 {
		// Durable erase intent, logged before the first physical delete:
		// if a crash interrupts the loop below, recovery replays this
		// record and finishes the erasure idempotently instead of
		// resurrecting the subject's remaining records (§3.2: "deleted
		// means deleted" must survive failure).
		db.data.Log().Append(wal.RecErase, want, encodeEraseIntent(keys))
	}
	// The periodic checkpointer must not fire between these deletes: a
	// snapshot of a half-erased subject would truncate the intent above,
	// and a crash right after it would resurrect the remaining records.
	// Defer the checkpoint (and the deletes' forced clock note) until
	// the cascade is complete.
	db.suppressCheckpoints = true
	defer func() {
		db.suppressCheckpoints = false
		db.noteClockLocked(true)
		db.checkpointIfDueLocked()
	}()
	erased := 0
	for _, k := range keys {
		if err := db.deleteDataLocked(entity, k); err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // removed by a cascade earlier in this request
			}
			return erased, err
		}
		erased++
	}
	return erased, nil
}

// revokeConsentLocked withdraws the subject's consent for one (purpose,
// entity) pair on a record (GDPR Art. 7(3): withdrawal must be as easy
// as granting). Later processing under that pair is denied and the
// withdrawal itself is recorded. Caller holds mu.
func (db *DB) revokeConsentLocked(key string, purpose core.Purpose, entity core.EntityID) error {
	now := db.clock.Tick()
	if _, ok := db.data.Get([]byte(key)); !ok {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	removed := db.policies.RevokePolicy(unit, purpose, entity)
	// Consent changes mutate no heap row, so they get their own logical
	// WAL record; without it a crash would resurrect the revoked grant
	// when recovery re-derives the unit's policies.
	db.data.Log().Append(wal.RecConsent, []byte(key), encodeConsentRevocation(purpose, entity))
	db.noteClockLocked(true)
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: EntitySubjectSvc,
		Action: core.Action{
			Kind:                 core.ActionConsent,
			SystemAction:         fmt.Sprintf("REVOKE (%d policies)", removed),
			RequiredByRegulation: true,
		},
		At: now,
	}
	db.logOp(tuple, "REVOKE CONSENT", nil, unit, nil)
	if db.modelDB != nil {
		if u, ok := db.modelDB.Lookup(unit); ok {
			u.Revoke(purpose, entity, now)
		}
		db.history.MustAppend(tuple)
	}
	return nil
}

// objectLocked records the subject's objection to processing (GDPR
// Art. 21): the record is flagged and the processor's processing
// consent is withdrawn, so further processing reads are denied. Caller
// holds mu.
func (db *DB) objectLocked(key string) error {
	now := db.clock.Tick()
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return err
	}
	if !rec.Meta.Objected {
		rec.Meta.Objected = true
		if err := db.data.Update([]byte(key), encodeRecord(rec)); err != nil {
			return err
		}
	}
	unit := core.UnitID(key)
	db.policies.RevokePolicy(unit, PurposeProcessing, EntityProcessor)
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: PurposeSubjectAccess, Entity: EntitySubjectSvc,
		Action: core.Action{
			Kind: core.ActionWriteMetadata, SystemAction: "OBJECT",
			RequiredByRegulation: true,
		},
		At: now,
	}
	db.logOp(tuple, "OBJECT TO PROCESSING", nil, unit, nil)
	if db.modelDB != nil {
		if u, ok := db.modelDB.Lookup(unit); ok {
			u.Revoke(PurposeProcessing, EntityProcessor, now)
		}
		db.history.MustAppend(tuple)
	}
	db.counters.metaUpdates.Add(1)
	db.afterMutation()
	return nil
}
