package compliance

import (
	"fmt"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/provenance"
	"github.com/datacase/datacase/internal/storage"
)

// This file adds derived data to the deployments: records computed from
// base records, tracked in a provenance graph. Derived data is what
// separates plain deletion from strong deletion (§3.1): under the
// strong grounding (P_SYS), erasing a record cascades to every derived
// record in which the data subject is still identifiable.

// Transform computes a derived payload from parent payloads.
type Transform func(parents [][]byte) []byte

// derivedParent is one policy-checked, decoded derivation input.
type derivedParent struct {
	unit    core.UnitID
	payload []byte
	meta    Metadata
	// model is the parent's model-mirror unit; nil when the DB does not
	// track the model, the unit is unknown, or the parent lives on
	// another shard (cross-shard derivations must not read a foreign
	// shard's model units without its lock).
	model *core.DataUnit
}

// fetchParentLocked policy-checks and decodes one derivation parent.
// Caller holds mu.
func (db *DB) fetchParentLocked(entity core.EntityID, purpose core.Purpose, key string, now core.Time) (derivedParent, error) {
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return derivedParent{}, fmt.Errorf("%w: parent %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	d := db.policies.Allow(policy.Request{
		Unit: unit, Subject: core.EntityID(metaSubject(row)),
		Entity: entity, Purpose: purpose, Action: core.ActionRead, At: now,
	})
	if !d.Allowed {
		db.counters.denials.Add(1)
		return derivedParent{}, fmt.Errorf("%w: parent %s: %s", ErrDenied, key, d.Reason)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return derivedParent{}, err
	}
	payload, err := db.unprotect(rec.Blob)
	if err != nil {
		return derivedParent{}, err
	}
	p := derivedParent{unit: unit, payload: payload, meta: rec.Meta}
	if db.modelDB != nil {
		if u, ok := db.modelDB.Lookup(unit); ok {
			p.model = u
		}
	}
	return p, nil
}

// combineParents computes the derived record's restricted metadata
// (§2.1): the purposes are the intersection, the TTL the minimum, and
// the subject is the parents' common subject — or "aggregate" when they
// differ (aggregates over several subjects do not identify one person;
// strong deletion of a single subject will not cascade to them).
func combineParents(parents []derivedParent) (subject string, purposes []string, minTTL int64) {
	subject = parents[0].meta.Subject
	purposes = parents[0].meta.Purposes
	minTTL = int64(1) << 62
	uniform := true
	for i, p := range parents {
		if i > 0 {
			if p.meta.Subject != parents[0].meta.Subject {
				uniform = false
			}
			purposes = intersectStrings(purposes, p.meta.Purposes)
		}
		if p.meta.TTL < minTTL {
			minTTL = p.meta.TTL
		}
	}
	if !uniform {
		subject = aggregateSubject
	}
	return subject, purposes, minTTL
}

// aggregateSubject marks cross-subject derived records: no single
// person is identifiable, no subject-scoped right targets them, and
// the sharded engine places them by record key instead of subject.
const aggregateSubject = "aggregate"

// insertDerivedLocked stores the derived record, attaches its restricted
// policies, records the provenance edge and logs the derivation. Caller
// holds mu. The model unit is built from the parents' units only when
// every parent carries one (same-shard derivations); otherwise it stands
// alone as a KindDerived unit.
func (db *DB) insertDerivedLocked(entity core.EntityID, purpose core.Purpose, newKey string,
	parents []derivedParent, subject string, purposes []string, minTTL int64,
	derived []byte, invertible bool, description string, now core.Time) error {
	meta := Metadata{
		Subject:  subject,
		Purposes: purposes,
		TTL:      minTTL,
		BaseTTL:  minTTL,
		// Derived data stays in-house unless re-consented.
		Processors: nil,
	}
	blob, err := db.protect(derived)
	if err != nil {
		return err
	}
	row := encodeRecord(storedRecord{Meta: meta, Blob: blob})
	if err := db.data.Insert([]byte(newKey), row); err != nil {
		return err
	}
	db.personalBytes += int64(len(derived))
	db.metaBytes += int64(len(row) - len(blob))

	unit := core.UnitID(newKey)
	deadline := core.Time(int64(now) + minTTL)
	pols := []core.Policy{
		{Purpose: PurposeService, Entity: EntityController, Begin: now, End: deadline},
		{Purpose: PurposeSubjectAccess, Entity: EntitySubjectSvc, Begin: now, End: deadline},
		{Purpose: core.PurposeComplianceErase, Entity: EntitySystem, Begin: now, End: deadline},
	}
	if err := db.policies.AttachPolicies(unit, core.EntityID(subject), pols); err != nil {
		return err
	}
	parentUnits := make([]core.UnitID, 0, len(parents))
	modelParents := make([]*core.DataUnit, 0, len(parents))
	for _, p := range parents {
		parentUnits = append(parentUnits, p.unit)
		if p.model != nil {
			modelParents = append(modelParents, p.model)
		}
	}
	if err := db.prov.AddDerivation(provenance.Derivation{
		Child: unit, Parents: parentUnits,
		Invertible: invertible, Description: description,
	}); err != nil {
		return err
	}
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionDerive, SystemAction: "INSERT derived"}, At: now,
	}
	db.logOp(tuple, "DERIVE "+description, nil, unit, nil)
	if db.modelDB != nil {
		var u *core.DataUnit
		if len(modelParents) == len(parents) {
			u = core.NewDerivedUnit(unit, now, modelParents...)
		} else {
			u = core.NewDataUnit(unit, core.KindDerived, core.EntityID(subject), "derivation")
		}
		u.SetValue(derived, now)
		for _, p := range pols {
			_ = u.Grant(p, now)
		}
		_ = db.modelDB.Add(u)
		db.history.MustAppend(tuple)
	}
	db.counters.creates.Add(1)
	return nil
}

// deriveLocked creates a derived record from parent records on this
// shard: the entity must be allowed to read every parent for the
// purpose; the derived record's subject aggregates the parents'
// subjects, its purposes are the intersection, and its TTL is the
// minimum — the policy restriction of §2.1. The derivation is recorded
// in the provenance graph. Caller holds mu.
func (db *DB) deriveLocked(entity core.EntityID, purpose core.Purpose, newKey string,
	parentKeys []string, f Transform, invertible bool, description string) error {
	if len(parentKeys) == 0 {
		return fmt.Errorf("compliance: derivation needs at least one parent")
	}
	now := db.clock.Tick()

	parents := make([]derivedParent, 0, len(parentKeys))
	payloads := make([][]byte, 0, len(parentKeys))
	for _, pk := range parentKeys {
		p, err := db.fetchParentLocked(entity, purpose, pk, now)
		if err != nil {
			return err
		}
		parents = append(parents, p)
		payloads = append(payloads, p.payload)
	}
	subject, purposes, minTTL := combineParents(parents)
	derived := f(payloads)
	return db.insertDerivedLocked(entity, purpose, newKey, parents,
		subject, purposes, minTTL, derived, invertible, description, now)
}

// Provenance exposes the provenance graph (reports, tests).
func (db *DB) Provenance() *provenance.Graph { return db.prov }

// cascadeTargets lists the live same-subject dependents that a strong
// delete of the unit will cascade to — the key set a durable cascade
// intent must cover before the first physical delete. Caller holds mu.
func (db *DB) cascadeTargets(unit core.UnitID, subject []byte) []string {
	var out []string
	for _, dep := range db.prov.Dependents(unit) {
		row, ok := db.data.Get([]byte(dep))
		if !ok || string(metaSubject(row)) != string(subject) {
			continue
		}
		out = append(out, string(dep))
	}
	return out
}

// cascadeDependents strong-deletes every derived record in which the
// erased subject remains identifiable. Caller holds mu and has already
// deleted the primary record.
func (db *DB) cascadeDependents(unit core.UnitID, subject []byte, entity core.EntityID, now core.Time) {
	for _, dep := range db.prov.Dependents(unit) {
		row, ok := db.data.Get([]byte(dep))
		if !ok {
			continue // already gone
		}
		if string(metaSubject(row)) != string(subject) {
			continue // subject not identifiable in the dependent
		}
		if err := db.data.Delete([]byte(dep)); err != nil {
			continue
		}
		// The cascade is part of the strong delete: its targets get the
		// same bounded-residency guarantee as the primary record.
		if pg, ok := db.data.(storage.Purger); ok {
			pg.RegisterPurge([]byte(dep))
		}
		if db.onDelete != nil {
			db.onDelete(string(dep))
		}
		db.policies.RevokePolicies(dep)
		if db.profile.EraseLogsOnDelete {
			_, _ = db.logger.EraseUnit(dep)
		}
		tuple := core.HistoryTuple{
			Unit: dep, Purpose: core.PurposeComplianceErase, Entity: entity,
			Action: core.Action{
				Kind: core.ActionErase, SystemAction: "DELETE (dependent)",
				RequiredByRegulation: true,
			},
			At: now,
		}
		db.logOp(tuple, "DELETE dependent", nil, dep, nil)
		if db.modelDB != nil {
			if u, ok := db.modelDB.Lookup(dep); ok {
				u.RevokeAllPolicies(now)
				u.MarkErased(now)
			}
			db.history.MustAppend(tuple)
		}
		db.counters.cascadeDeletes.Add(1)
	}
}

func intersectStrings(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, s := range b {
		set[s] = true
	}
	var out []string
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}
