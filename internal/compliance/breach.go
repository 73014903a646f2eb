package compliance

import (
	"fmt"
	"strings"

	"github.com/datacase/datacase/internal/core"
)

// Breach handling (GDPR Arts. 33-34): detections and notifications are
// recorded as history tuples under a breach pseudo-unit, so the
// notification deadline is checked by the same invariant machinery as
// everything else.

// BreachNotificationWindow is the notification deadline in logical time
// units (the 72-hour analogue).
const BreachNotificationWindow core.Time = 72

// recordBreachLocked records the detection of a personal data breach
// affecting the given records; caller holds mu.
func (db *DB) recordBreachLocked(id string, affectedKeys []string) error {
	if id == "" {
		return fmt.Errorf("compliance: breach needs an id")
	}
	now := db.clock.Tick()
	unit := core.BreachUnitID(id)
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: core.PurposeLegalObligation, Entity: EntitySystem,
		Action: core.Action{
			Kind:                 core.ActionWriteMetadata,
			SystemAction:         core.BreachDetectedAction,
			RequiredByRegulation: true,
		},
		At: now,
	}
	db.logOp(tuple, "BREACH DETECTED", []byte(strings.Join(affectedKeys, ",")), "", nil)
	if db.history != nil {
		db.history.MustAppend(tuple)
	}
	return nil
}

// notifyBreachLocked records that the supervisory authority and
// affected data subjects were notified of the breach; caller holds mu.
func (db *DB) notifyBreachLocked(id string) error {
	if id == "" {
		return fmt.Errorf("compliance: breach needs an id")
	}
	now := db.clock.Tick()
	unit := core.BreachUnitID(id)
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: core.PurposeLegalObligation, Entity: EntitySystem,
		Action: core.Action{
			Kind:                 core.ActionWriteMetadata,
			SystemAction:         core.BreachNotifiedAction,
			RequiredByRegulation: true,
		},
		At: now,
	}
	db.logOp(tuple, "BREACH NOTIFIED", nil, "", nil)
	if db.history != nil {
		db.history.MustAppend(tuple)
	}
	return nil
}

// withBreachInvariant extends the invariant set with the breach
// notification invariant (shared by the single and sharded audits).
func withBreachInvariant(invs *core.InvariantSet) (*core.InvariantSet, error) {
	full, err := core.NewInvariantSet()
	if err != nil {
		return nil, err
	}
	if invs != nil {
		for _, id := range invs.IDs() {
			inv, _ := invs.Lookup(id)
			if err := full.Add(inv); err != nil {
				return nil, err
			}
		}
	}
	if err := full.Add(core.NewBreachNotificationInvariant(BreachNotificationWindow)); err != nil {
		return nil, err
	}
	return full, nil
}
