package compliance

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/policy"
)

// This file tests the concurrent read path: the "don't use" property
// under races (a revocation must be instantaneous — no stale allow
// after Revoke returns), the decision cache's invalidation matrix on
// both storage backends, the atomicity of the op counters, and the
// async audit sink's flush points at the DB level.

// strictProfile is PSYS (Sieve FGAC — the engine that can express
// per-unit revocation) grounded on the given storage backend.
func strictProfile(backend string) Profile {
	p := PSYS()
	p.Backend = backend
	p.LSMFlushEntries = 8
	return p
}

// backendsUnderTest lists the storage backends the matrix runs over.
func backendsUnderTest() []string { return []string{BackendHeap, BackendLSM} }

// TestNoStaleAllowAfterRevoke is the tentpole's -race property test:
// 32 readers hammer one unit's ReadData while the main goroutine
// revokes the consent that authorizes them. A reader that begins after
// RevokeConsent returned and still gets an allow is a compliance
// violation — the decision cache's pre-commit epoch bump is what makes
// this impossible.
func TestNoStaleAllowAfterRevoke(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		t.Run(backend, func(t *testing.T) {
			db := openProfile(t, strictProfile(backend), false)
			defer db.Close()
			rec := testRecord(1)
			if err := db.Create(rec); err != nil {
				t.Fatal(err)
			}
			// Warm the decision cache so the revocation actually has a
			// cached allow to kill.
			if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
				t.Fatal(err)
			}

			var revoked atomic.Bool
			var stale atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Order matters: sample the flag BEFORE starting
						// the read. If the flag was already set, the
						// revocation had fully returned, and an allow is
						// a stale decision.
						wasRevoked := revoked.Load()
						_, err := db.ReadData(EntityController, PurposeService, rec.Key)
						if err == nil && wasRevoked {
							stale.Add(1)
						}
					}
				}()
			}
			if err := db.RevokeConsent(rec.Key, PurposeService, EntityController); err != nil {
				t.Fatal(err)
			}
			revoked.Store(true)
			// The revoker's own re-checks must deny from the first one.
			for i := 0; i < 200; i++ {
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
					t.Errorf("read %d after revocation: err = %v, want ErrDenied", i, err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if n := stale.Load(); n != 0 {
				t.Fatalf("%d reads were allowed after RevokeConsent returned", n)
			}
		})
	}
}

// TestNoResurrectionAfterErase: same property for the erase compound —
// once EraseSubject returns, concurrent readers must never see the
// subject's data again.
func TestNoResurrectionAfterErase(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		t.Run(backend, func(t *testing.T) {
			db := openProfile(t, strictProfile(backend), false)
			defer db.Close()
			rec := testRecord(2)
			if err := db.Create(rec); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
				t.Fatal(err)
			}
			var erased atomic.Bool
			var resurrections atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						wasErased := erased.Load()
						if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err == nil && wasErased {
							resurrections.Add(1)
						}
					}
				}()
			}
			if _, err := db.EraseSubject(EntitySystem, rec.Subject); err != nil {
				t.Fatal(err)
			}
			erased.Store(true)
			close(stop)
			wg.Wait()
			if n := resurrections.Load(); n != 0 {
				t.Fatalf("%d reads saw the subject after EraseSubject returned", n)
			}
			if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("post-erase read: err = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestCountersAtomicUnderConcurrentReads: the shared-lock read path
// bumps counters without the exclusive lock; the tally must stay exact.
// Run with -race.
func TestCountersAtomicUnderConcurrentReads(t *testing.T) {
	db := openProfile(t, PBase(), false)
	defer db.Close()
	const records, readers, perReader = 16, 8, 500
	for i := 0; i < records; i++ {
		if err := db.Create(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	base := db.Counters()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				key := testRecord((r*13 + i) % records).Key
				if i%3 == 0 {
					if _, err := db.ReadMeta(EntityController, PurposeService, key); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := db.ReadData(EntityController, PurposeService, key); err != nil {
						t.Error(err)
						return
					}
				}
				if i%100 == 0 {
					db.Counters() // snapshots interleave with bumps
				}
			}
		}(r)
	}
	wg.Wait()
	c := db.Counters()
	gotReads := c.DataReads - base.DataReads
	gotMeta := c.MetaReads - base.MetaReads
	if total := gotReads + gotMeta; total != readers*perReader {
		t.Fatalf("reads counted = %d, want %d", total, readers*perReader)
	}
}

// TestDecisionCacheInvalidationMatrix drives the five invalidation
// scenarios on both backends: consent revocation, TTL/retention
// expiry, an UpdateMeta purpose change, the strong-delete cascade, and
// crash-recovery replay. Each scenario warms the cache, fires the
// event, and proves no stale decision survives it.
func TestDecisionCacheInvalidationMatrix(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		t.Run(backend, func(t *testing.T) {

			t.Run("revoke", func(t *testing.T) {
				db := openProfile(t, strictProfile(backend), false)
				defer db.Close()
				rec := testRecord(10)
				if err := db.Create(rec); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
						t.Fatal(err)
					}
				}
				st := db.Shard(0).PolicyEngine().Stats()
				if st.CacheHits == 0 {
					t.Fatal("cache never warmed")
				}
				if err := db.RevokeConsent(rec.Key, PurposeService, EntityController); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
					t.Fatalf("post-revoke read: err = %v, want ErrDenied", err)
				}
				if after := db.Shard(0).PolicyEngine().Stats(); after.CacheInvalidations <= st.CacheInvalidations {
					t.Fatal("revocation recorded no cache invalidation")
				}
			})

			t.Run("ttl_expiry", func(t *testing.T) {
				db := openProfile(t, strictProfile(backend), false)
				defer db.Close()
				rec := testRecord(11)
				rec.TTL = 1000
				if err := db.Create(rec); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
					t.Fatal(err)
				}
				// Past the retention deadline the cached allow must die on
				// its validity bound — no invalidation event ever fires.
				db.AdvanceClock(2000)
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
					t.Fatalf("post-expiry read: err = %v, want ErrDenied", err)
				}
				if st := db.Shard(0).PolicyEngine().Stats(); st.CacheStaleKills == 0 {
					t.Fatal("expiry recorded no stale kill")
				}
			})

			t.Run("updatemeta_purpose_change", func(t *testing.T) {
				db := openProfile(t, strictProfile(backend), false)
				defer db.Close()
				rec := testRecord(12)
				if err := db.Create(rec); err != nil {
					t.Fatal(err)
				}
				// Warm the cached denial for the unconsented purpose.
				for i := 0; i < 2; i++ {
					if _, err := db.ReadData(EntityController, "research", rec.Key); !errors.Is(err, ErrDenied) {
						t.Fatalf("unconsented purpose: err = %v, want ErrDenied", err)
					}
				}
				// UpdateMeta consents to it; the cached denial must die
				// before the attach commits.
				if err := db.UpdateMeta(EntityController, PurposeService, rec.Key, "research", 1<<30); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, "research", rec.Key); err != nil {
					t.Fatalf("consented purpose still denied: %v", err)
				}
			})

			t.Run("erase_cascade", func(t *testing.T) {
				db := openProfile(t, strictProfile(backend), false)
				defer db.Close()
				parent := testRecord(13)
				if err := db.Create(parent); err != nil {
					t.Fatal(err)
				}
				derived := "derived-of-" + parent.Key
				err := db.Derive(EntityController, PurposeService, derived,
					[]string{parent.Key}, func(ps [][]byte) []byte { return ps[0] }, false, "copy")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, PurposeService, derived); err != nil {
					t.Fatal(err)
				}
				// Strong delete of the parent cascades to the derived
				// record (same identifiable subject); its cached allow
				// must go with it.
				if err := db.DeleteData(EntitySystem, parent.Key); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, PurposeService, derived); !errors.Is(err, ErrNotFound) {
					t.Fatalf("cascaded dependent readable after erase: err = %v, want ErrNotFound", err)
				}
				if c := db.Counters(); c.CascadeDeletes == 0 {
					t.Fatal("cascade did not run")
				}
			})

			t.Run("recovery_replay", func(t *testing.T) {
				if backend == BackendLSM {
					// Same protocol on both backends; the LSM variant is
					// covered by the backend-parametrized recovery tests.
				}
				db := openProfile(t, strictProfile(backend), false)
				defer db.Close()
				rec := testRecord(14)
				if err := db.Create(rec); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
					t.Fatal(err)
				}
				if err := db.RevokeConsent(rec.Key, PurposeService, EntityController); err != nil {
					t.Fatal(err)
				}
				// Crash and recover: the rebuilt deployment starts a fresh
				// decision cache, and the replayed RecConsent record must
				// keep the revocation in force — a recovered cache that
				// re-allowed would be a stale decision surviving the crash.
				rdb, _, err := RecoverSharded(db.Profile(), db.SegmentImages())
				if err != nil {
					t.Fatal(err)
				}
				defer rdb.Close()
				if _, err := rdb.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
					t.Fatalf("recovered read: err = %v, want ErrDenied", err)
				}
				// And a warm recovered cache keeps denying.
				if _, err := rdb.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
					t.Fatalf("recovered cached read: err = %v, want ErrDenied", err)
				}
			})
		})
	}
}

// TestCacheServedDecisionInAuditTrail: demonstrable accountability must
// record how an allow was produced — a cache-served decision carries
// its grounding in the policy snapshot.
func TestCacheServedDecisionInAuditTrail(t *testing.T) {
	inner := audit.NewQueryLogger()
	p := Profile{
		Name:               "P_CacheTrail",
		NewPolicyEngine:    func() policy.Engine { return policy.NewSieve(policy.SubjectConsentGuard()) },
		NewLogger:          func() (audit.Logger, error) { return inner, nil },
		PayloadCipher:      cryptox.AES128,
		LogResponses:       true,
		LogPolicySnapshots: true,
	}
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rec := testRecord(20)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			t.Fatal(err)
		}
	}
	if c := db.Shard(0).Logger().Count(); c == 0 { // flushes the async sink
		t.Fatal("no audit entries")
	}
	var cold, cached bool
	for _, e := range inner.Entries() {
		snap := string(e.PolicySnapshot)
		if !strings.Contains(snap, "unit="+rec.Key) {
			continue
		}
		if strings.Contains(snap, "decision=cached") {
			cached = true
		} else {
			cold = true
		}
	}
	if !cold || !cached {
		t.Fatalf("audit trail must hold both a cold and a cache-served read (cold=%v cached=%v)", cold, cached)
	}
}

// TestAsyncAuditEraseCoversQueuedReads: the strong grounding erases the
// log entries of a deleted unit before logging the erasure itself;
// reads of that unit still sitting in the async queue must be erased
// too, not land after the erasure — afterwards only the erasure record
// (the compliance evidence) may reference the unit.
func TestAsyncAuditEraseCoversQueuedReads(t *testing.T) {
	inner := audit.NewQueryLogger()
	p := Profile{
		Name:              "P_EraseTrail",
		NewPolicyEngine:   func() policy.Engine { return policy.NewSieve(policy.SubjectConsentGuard()) },
		NewLogger:         func() (audit.Logger, error) { return inner, nil },
		PayloadCipher:     cryptox.AES128,
		EraseLogsOnDelete: true,
	}
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rec := testRecord(21)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			t.Fatal(err)
		}
	}
	// No flush in between: the 8 read records may still be queued when
	// the delete's log erasure runs.
	if err := db.DeleteData(EntitySystem, rec.Key); err != nil {
		t.Fatal(err)
	}
	db.Shard(0).Logger().Count() // flush
	var kinds []core.ActionKind
	for _, e := range inner.Entries() {
		if e.Tuple.Unit == core.UnitID(rec.Key) {
			kinds = append(kinds, e.Tuple.Action.Kind)
		}
	}
	if len(kinds) != 1 || kinds[0] != core.ActionErase {
		t.Fatalf("unit's surviving entries = %v, want exactly the erasure record", kinds)
	}
}

// TestExclusiveReadsBaseline: the one-big-mutex baseline must stay
// functionally identical (it exists so the readpath experiment can
// measure what the shared lock buys).
func TestExclusiveReadsBaseline(t *testing.T) {
	p := PBase()
	p.ExclusiveReads = true
	p.NoDecisionCache = true
	p.SyncAudit = true
	db := openProfile(t, p, false)
	defer db.Close()
	rec := testRecord(22)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c := db.Counters(); c.DataReads != 400 {
		t.Fatalf("reads = %d, want 400", c.DataReads)
	}
	if st := db.Shard(0).PolicyEngine().Stats(); st.CacheHits != 0 {
		t.Fatal("baseline profile used the decision cache")
	}
}

// TestShardedConcurrentReadsAcrossShards: the sharded facade's read
// path composes with per-shard shared locks; a concurrent mixed
// read/revoke stream across shards stays consistent. Run with -race.
func TestShardedConcurrentReadsAcrossShards(t *testing.T) {
	s, err := OpenSharded(strictProfile(BackendHeap), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 32
	for i := 0; i < records; i++ {
		if err := s.Create(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := testRecord((r*7 + i) % records).Key
				_, err := s.ReadData(EntityController, PurposeService, key)
				if err != nil && !errors.Is(err, ErrDenied) && !errors.Is(err, ErrNotFound) {
					t.Errorf("read %s: %v", key, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < records; i += 3 {
			if err := s.RevokeConsent(testRecord(i).Key, PurposeService, EntityController); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// Every revoked unit stays revoked.
	for i := 0; i < records; i += 3 {
		if _, err := s.ReadData(EntityController, PurposeService, testRecord(i).Key); !errors.Is(err, ErrDenied) {
			t.Fatalf("unit %d readable after revocation: %v", i, err)
		}
	}
}

// TestCacheOffMatrixStillCorrect: the invalidation matrix's observable
// outcomes must be identical with the cache disabled — the cache is an
// accelerator, never a semantic.
func TestCacheOffMatrixStillCorrect(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		t.Run(backend, func(t *testing.T) {
			p := strictProfile(backend)
			p.NoDecisionCache = true
			db := openProfile(t, p, false)
			defer db.Close()
			rec := testRecord(30)
			if err := db.Create(rec); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
				t.Fatal(err)
			}
			if err := db.RevokeConsent(rec.Key, PurposeService, EntityController); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
				t.Fatalf("post-revoke read: err = %v, want ErrDenied", err)
			}
			if st := db.Shard(0).PolicyEngine().Stats(); st.CacheHits+st.CacheMisses != 0 {
				t.Fatal("NoDecisionCache profile recorded cache traffic")
			}
		})
	}
}
