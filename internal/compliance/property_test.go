package compliance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datacase/datacase/internal/gdprbench"
)

// refRecord is the reference model's view of one record.
type refRecord struct {
	payload  []byte
	objected bool
}

// TestDBAgainstReferenceProperty drives random operation sequences
// against every profile and a trivial reference map, checking that data
// reads, deletes and objections agree. This is the end-to-end
// workhorse: it exercises policy engines, loggers, crypto, vacuum paths
// and erasure cascades together.
func TestDBAgainstReferenceProperty(t *testing.T) {
	// The three paper profiles on the heap backend, plus each on the
	// LSM backend with a small memtable — decision equivalence must
	// hold whatever the storage engine.
	profiles := Profiles()
	for _, p := range Profiles() {
		p.Backend = BackendLSM
		p.LSMFlushEntries = 16
		profiles = append(profiles, p)
	}
	f := func(seed int64, profileIdx uint8) bool {
		p := profiles[int(profileIdx)%len(profiles)]
		db, err := OpenSharded(p, 1)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		ref := make(map[string]*refRecord)
		keyOf := func(i int) string { return fmt.Sprintf("user%08d", i) }
		nextKey := 0
		for op := 0; op < 400; op++ {
			switch r.Intn(10) {
			case 0, 1, 2: // create
				key := keyOf(nextKey)
				nextKey++
				rec := gdprbench.Record{
					Key: key, Subject: fmt.Sprintf("person-%d", nextKey%7),
					Payload:  []byte(fmt.Sprintf("payload-%d", op)),
					Purposes: []string{"billing", "analytics"}, TTL: 1 << 40,
					Processors: []string{"processor-a"},
				}
				if err := db.Create(rec); err != nil {
					return false
				}
				ref[key] = &refRecord{payload: rec.Payload}
			case 3, 4: // read
				if nextKey == 0 {
					continue
				}
				key := keyOf(r.Intn(nextKey))
				got, err := db.ReadData(EntityController, PurposeService, key)
				want, live := ref[key]
				if live != (err == nil) {
					return false
				}
				if live && !bytes.Equal(got, want.payload) {
					return false
				}
			case 5: // update
				if nextKey == 0 {
					continue
				}
				key := keyOf(r.Intn(nextKey))
				newPayload := []byte(fmt.Sprintf("updated-%d", op))
				err := db.UpdateData(EntityController, PurposeService, key, newPayload)
				if rec, live := ref[key]; live {
					if err != nil {
						return false
					}
					rec.payload = newPayload
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 6: // delete (right to erasure)
				if nextKey == 0 {
					continue
				}
				key := keyOf(r.Intn(nextKey))
				err := db.DeleteData(EntitySubjectSvc, key)
				if _, live := ref[key]; live {
					if err != nil {
						return false
					}
					delete(ref, key)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 7: // objection
				if nextKey == 0 {
					continue
				}
				key := keyOf(r.Intn(nextKey))
				err := db.Object(key)
				if rec, live := ref[key]; live {
					if err != nil {
						return false
					}
					rec.objected = true
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 8: // meta read agrees on the objection flag
				if nextKey == 0 {
					continue
				}
				key := keyOf(r.Intn(nextKey))
				meta, err := db.ReadMeta(EntitySubjectSvc, PurposeSubjectAccess, key)
				if rec, live := ref[key]; live {
					if err != nil || meta.Objected != rec.objected {
						return false
					}
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 9: // consistency sweep
				if db.Len() != len(ref) {
					return false
				}
			}
		}
		return db.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSubjectAccessMatchesReferenceProperty: a SAR returns exactly the
// live records of the subject.
func TestSubjectAccessMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		db, err := OpenSharded(PSYS(), 1)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		bySubject := make(map[string]map[string]bool)
		for i := 0; i < 60; i++ {
			subject := fmt.Sprintf("person-%d", r.Intn(5))
			key := fmt.Sprintf("user%08d", i)
			rec := gdprbench.Record{
				Key: key, Subject: subject,
				Payload:  []byte("p"),
				Purposes: []string{"billing"}, TTL: 1 << 40,
				Processors: []string{"processor-a"},
			}
			if err := db.Create(rec); err != nil {
				return false
			}
			if bySubject[subject] == nil {
				bySubject[subject] = make(map[string]bool)
			}
			bySubject[subject][key] = true
		}
		// Erase a random half of one subject's records.
		for subject, keys := range bySubject {
			for key := range keys {
				if r.Intn(2) == 0 {
					if err := db.DeleteData(EntitySubjectSvc, key); err != nil {
						return false
					}
					delete(keys, key)
				}
			}
			got, err := db.SubjectAccess(subject)
			if err != nil {
				return false
			}
			if len(got) != len(keys) {
				return false
			}
			for _, g := range got {
				if !keys[g.Key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
