package compliance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wal"
)

// logicalDigest hashes the decrypted, policy-visible state of a
// deployment: every listed subject's records via SubjectAccess, sorted
// by key. Unlike stateDigest it compares across DISTINCT deployments,
// whose payload ciphers hold different keys and nonces and so never
// agree byte-for-byte on disk.
func logicalDigest(t *testing.T, s *ShardedDB, subjects []string) string {
	t.Helper()
	h := sha256.New()
	for _, sub := range subjects {
		recs, err := s.SubjectAccess(sub)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
		fmt.Fprintf(h, "subject %s (%d records)\n", sub, len(recs))
		for _, r := range recs {
			// CreatedAt is the one field allowed to differ: a batch is a
			// single collection event sharing one clock tick, serial
			// creates tick per record.
			m := r.Meta
			m.CreatedAt = 0
			fmt.Fprintf(h, "%s|%x|%+v\n", r.Key, r.Payload, m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ingestProfiles runs a subtest per storage backend: batch admission
// and the incremental checkpointer are WAL-protocol features, so both
// engines must satisfy every property here.
func ingestProfiles() map[string]Profile {
	return map[string]Profile{BackendHeap: PBase(), BackendLSM: lsmTestProfile()}
}

func TestCreateBatchBasic(t *testing.T) {
	for backend, p := range ingestProfiles() {
		t.Run(backend, func(t *testing.T) {
			s, err := OpenSharded(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			recs := make([]gdprbench.Record, 40)
			for i := range recs {
				recs[i] = recTestRecord(i)
			}
			created, err := s.CreateBatch(recs)
			if err != nil {
				t.Fatalf("CreateBatch: %v", err)
			}
			if created != len(recs) {
				t.Fatalf("created = %d, want %d", created, len(recs))
			}
			if got := s.Len(); got != len(recs) {
				t.Fatalf("Len = %d, want %d", got, len(recs))
			}
			for i := range recs {
				payload, err := s.ReadData(EntityController, PurposeService, recTestKey(i))
				if err != nil {
					t.Fatalf("read %s: %v", recTestKey(i), err)
				}
				if !bytes.Equal(payload, recs[i].Payload) {
					t.Fatalf("read %s: payload %q, want %q", recTestKey(i), payload, recs[i].Payload)
				}
			}

			// A batch containing an already-taken key fails that key's
			// whole shard bin (all-or-nothing per bin) and reports it.
			dup := []gdprbench.Record{recTestRecord(0)}
			if _, err := s.CreateBatch(dup); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate batch: err = %v, want ErrExists", err)
			}

			// So does a batch that repeats a key within itself.
			twin := recTestRecord(100)
			if _, err := s.CreateBatch([]gdprbench.Record{twin, twin}); !errors.Is(err, ErrExists) {
				t.Fatalf("intra-batch duplicate: err = %v, want ErrExists", err)
			}
			if _, ok := s.ShardIndexOf(twin.Key); ok {
				t.Fatal("failed bin leaked a record into the deployment")
			}
		})
	}
}

// TestCreateBatchMatchesSerialCreates is the batch path's conformance
// check: ingesting a population through CreateBatch must leave the
// deployment state-equal (digest over rows + directory) to creating the
// same records one by one.
func TestCreateBatchMatchesSerialCreates(t *testing.T) {
	for backend, p := range ingestProfiles() {
		t.Run(backend, func(t *testing.T) {
			serial, err := OpenSharded(p, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Close()
			batched, err := OpenSharded(p, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer batched.Close()

			recs := make([]gdprbench.Record, 30)
			for i := range recs {
				recs[i] = recTestRecord(i)
			}
			for _, rec := range recs {
				if err := serial.Create(rec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := batched.CreateBatch(recs); err != nil {
				t.Fatal(err)
			}
			if serial.Len() != batched.Len() {
				t.Fatalf("batched Len %d != serial Len %d", batched.Len(), serial.Len())
			}
			subjects := []string{recTestSubject(0), recTestSubject(1), recTestSubject(2),
				recTestSubject(3), recTestSubject(4)}
			if sd, bd := logicalDigest(t, serial, subjects), logicalDigest(t, batched, subjects); sd != bd {
				t.Fatalf("batched logical digest %s != serial digest %s", bd, sd)
			}
		})
	}
}

// TestIncrementalCheckpointCrashMatrix is the delta-checkpoint crash
// matrix: the WCon op script under an IncrementalCheckpoints profile
// whose cadence forces several base images AND several delta frames
// inside the sweep, recovering at every op boundary and requiring
// digest equality with the live reference — the same bar the full-image
// matrix (TestCrashPointMatrix) sets. The run must actually have taken
// deltas, or the matrix proves nothing.
func TestIncrementalCheckpointCrashMatrix(t *testing.T) {
	for backend, p := range ingestProfiles() {
		t.Run(backend, func(t *testing.T) {
			p.CheckpointEveryOps = 5
			p.IncrementalCheckpoints = true
			p.FullCheckpointEvery = 3
			s, err := OpenShardedWorkers(p, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			ops, eraseAt := matrixScript(s, true)
			type capture struct {
				digest string
				images [][]byte
				erased bool
			}
			var caps []capture
			for i, op := range ops {
				if err := op(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				caps = append(caps, capture{digest: stateDigest(t, s), images: s.SegmentImages(), erased: i >= eraseAt})
			}
			c := s.Counters()
			if c.DeltaCheckpoints == 0 {
				t.Fatal("matrix run took no delta checkpoints; cadence too loose to test anything")
			}
			if c.Checkpoints == c.DeltaCheckpoints {
				t.Fatal("matrix run took no full images to chain deltas to")
			}

			for i, cp := range caps {
				r, st, err := RecoverSharded(s.Profile(), cp.images)
				if err != nil {
					t.Fatalf("recover at op %d: %v", i, err)
				}
				if got := stateDigest(t, r); got != cp.digest {
					t.Fatalf("op %d: recovered digest %s != reference %s (stats %v)", i, got, cp.digest, st)
				}
				if cp.erased {
					recs, err := r.SubjectAccess(recTestSubject(2))
					if err != nil {
						t.Fatalf("op %d: subject access: %v", i, err)
					}
					if len(recs) != 0 {
						t.Fatalf("op %d: erased subject has %d readable records after recovery", i, len(recs))
					}
				}
			}
		})
	}
}

// TestIncrementalCheckpointEquivalentToFull pins the two checkpoint
// modes against each other: the same op script run under full-image
// and delta-frame checkpointing must recover to the same state.
func TestIncrementalCheckpointEquivalentToFull(t *testing.T) {
	digests := map[bool]string{}
	for _, incremental := range []bool{false, true} {
		p := PBase()
		p.CheckpointEveryOps = 5
		p.IncrementalCheckpoints = incremental
		p.FullCheckpointEvery = 3
		s, err := OpenShardedWorkers(p, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		ops, _ := matrixScript(s, true)
		for i, op := range ops {
			if err := op(); err != nil {
				t.Fatalf("incr=%v op %d: %v", incremental, i, err)
			}
		}
		r, _, err := RecoverSharded(s.Profile(), s.SegmentImages())
		if err != nil {
			t.Fatalf("incr=%v: recover: %v", incremental, err)
		}
		subjects := []string{recTestSubject(0), recTestSubject(1), recTestSubject(2),
			recTestSubject(3), recTestSubject(4)}
		for i := 20; i < 26; i++ {
			subjects = append(subjects, fmt.Sprintf("late-subject-%d", i))
		}
		digests[incremental] = logicalDigest(t, r, subjects)
	}
	if digests[false] != digests[true] {
		t.Fatalf("base+delta recovery digest %s != full-image recovery digest %s",
			digests[true], digests[false])
	}
}

// TestIncrementalCheckpointTornDeltaTail cuts the segment image at
// every byte offset past the base full image: torn mid-delta frames
// must degrade to the record tail (deltas are redundant summaries —
// every mutation they carry also rides in the tail), recovery must
// land on an op-boundary state, and an erase intent whose subject rows
// live in the BASE image but whose deletions ride a LATER delta frame
// must never resurrect — the boundary-spanning case.
func TestIncrementalCheckpointTornDeltaTail(t *testing.T) {
	p := PBase()
	p.IncrementalCheckpoints = true
	p.FullCheckpointEvery = 100 // deltas only, after the manual base
	s, err := OpenShardedWorkers(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.Shard(0)
	sh.Checkpoint() // the base full image; truncates the create prefix
	baseMark := int(sh.data.Log().SegmentSize())

	digests := map[string]bool{stateDigest(t, s): true}
	note := func() { digests[stateDigest(t, s)] = true }
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		note()
	}
	// A few updates, then a delta carrying them.
	for i := 0; i < 6; i++ {
		step(s.UpdateData(EntityController, PurposeService, recTestKey(i),
			[]byte(fmt.Sprintf("torn-update-%d", i))))
	}
	sh.Checkpoint()
	note()
	// Erase a subject whose rows all live in the base image; the
	// deletions ride the next delta frame.
	if _, err := s.EraseSubject(EntitySystem, recTestSubject(2)); err != nil {
		t.Fatal(err)
	}
	note()
	eraseMark := int(sh.data.Log().SegmentSize())
	sh.Checkpoint()
	note()
	// More work after the erase-carrying delta.
	for i := 20; i < 24; i++ {
		step(s.Create(recTestRecord(i)))
	}
	sh.Checkpoint()
	note()

	image := s.SegmentImages()[0]
	eraseKeys := []string{recTestKey(2), recTestKey(7), recTestKey(12), recTestKey(17)}
	for cut := baseMark; cut <= len(image); cut += 5 {
		img := wal.CrashPoint{Bytes: cut, FlipBit: -1}.Apply(image)
		r, _, err := RecoverSharded(s.Profile(), [][]byte{img})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := stateDigest(t, r); !digests[got] {
			t.Fatalf("cut %d: recovered digest %s matches no reference op state", cut, got)
		}
		live := 0
		for _, k := range eraseKeys {
			if _, ok := r.ShardIndexOf(k); ok {
				live++
			}
		}
		if live != 0 && live != len(eraseKeys) {
			t.Fatalf("cut %d: erasure partially resurrected (%d/%d rows live)", cut, live, len(eraseKeys))
		}
		if live != 0 && cut >= eraseMark {
			t.Fatalf("cut %d past the durable erase: %d rows resurrected", cut, live)
		}
		if live == 0 {
			rsh := r.Shard(0)
			for _, k := range eraseKeys {
				if err := erasure.Verify(rsh.data, rsh.data.Log(), []byte(k)); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
		}
	}
}

// TestIngestBatchRevokeRaceNoStaleAllows is the batched-admission
// analogue of the read-path revocation property: while IngestBatch
// traffic hammers the deployment, consents on pre-existing records are
// revoked; the instant every revocation has returned, a read under the
// revoked purpose must deny — zero stale allows, on both backends. Run
// with -race: the batches, the revocations and the reads overlap by
// design.
func TestIngestBatchRevokeRaceNoStaleAllows(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		t.Run(backend, func(t *testing.T) {
			// The strict (Sieve) profile: per-unit-precise enforcement, the
			// only kind that CAN deny a per-record revocation (PBase's RBAC
			// is role-level imprecise by design).
			p := strictProfile(backend)
			p.IncrementalCheckpoints = true
			p.CheckpointEveryOps = 16
			s, err := OpenSharded(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const victims = 16
			for i := 0; i < victims; i++ {
				if err := s.Create(recTestRecord(i)); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errc := make(chan error, 2*victims)
			wg.Add(1)
			go func() { // batched ingest of unrelated records
				defer wg.Done()
				for b := 0; b < victims; b++ {
					recs := make([]gdprbench.Record, 8)
					for j := range recs {
						recs[j] = recTestRecord(1000 + b*8 + j)
					}
					if _, err := s.IngestBatch(recs); err != nil {
						errc <- fmt.Errorf("ingest batch %d: %w", b, err)
						return
					}
				}
			}()
			wg.Add(1)
			go func() { // revoke the victims' consent mid-traffic
				defer wg.Done()
				for i := 0; i < victims; i++ {
					if err := s.RevokeConsent(recTestKey(i), PurposeService, EntityController); err != nil {
						errc <- fmt.Errorf("revoke %d: %w", i, err)
						return
					}
					// The barrier property: the moment RevokeConsent
					// returns, no read may be allowed, however many
					// batches are in flight.
					if _, err := s.ReadData(EntityController, PurposeService, recTestKey(i)); !errors.Is(err, ErrDenied) {
						errc <- fmt.Errorf("stale allow on %s right after revoke: err=%v", recTestKey(i), err)
						return
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			for i := 0; i < victims; i++ {
				if _, err := s.ReadData(EntityController, PurposeService, recTestKey(i)); !errors.Is(err, ErrDenied) {
					t.Fatalf("stale allow on %s after quiescence: err=%v", recTestKey(i), err)
				}
			}
		})
	}
}

// TestIngestBatchEraseRaceNoZombies races EraseSubject against
// IngestBatch traffic: after the dust settles, every record the erased
// subject owned beforehand must be physically gone (erasure.Verify),
// and every batch key must be either fully absent or fully readable —
// a batch admitted concurrently with an erasure never leaves
// half-written zombie rows. Run with -race.
func TestIngestBatchEraseRaceNoZombies(t *testing.T) {
	for backend, p := range ingestProfiles() {
		t.Run(backend, func(t *testing.T) {
			p.IncrementalCheckpoints = true
			p.CheckpointEveryOps = 16
			s, err := OpenSharded(p, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// The victim subject's pre-existing records.
			victim := "erase-victim"
			var victimKeys []string
			for i := 0; i < 12; i++ {
				rec := recTestRecord(200 + i)
				rec.Subject = victim
				victimKeys = append(victimKeys, rec.Key)
				if err := s.Create(rec); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errc := make(chan error, 8)
			var batchKeys []string
			for b := 0; b < 8; b++ {
				recs := make([]gdprbench.Record, 8)
				for j := range recs {
					recs[j] = recTestRecord(2000 + b*8 + j)
					batchKeys = append(batchKeys, recs[j].Key)
				}
				wg.Add(1)
				go func(b int, recs []gdprbench.Record) {
					defer wg.Done()
					if _, err := s.IngestBatch(recs); err != nil {
						errc <- fmt.Errorf("ingest batch %d: %w", b, err)
					}
				}(b, recs)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.EraseSubject(EntitySystem, victim); err != nil {
					errc <- fmt.Errorf("erase: %w", err)
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			for _, k := range victimKeys {
				if _, ok := s.ShardIndexOf(k); ok {
					t.Fatalf("zombie: erased subject's record %s still routed", k)
				}
				if _, err := s.ReadData(EntityController, PurposeService, k); !errors.Is(err, ErrNotFound) {
					t.Fatalf("zombie: erased record %s readable (err=%v)", k, err)
				}
			}
			recs, err := s.SubjectAccess(victim)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("zombie: erased subject still has %d accessible records", len(recs))
			}
			for _, k := range batchKeys {
				if _, err := s.ReadData(EntityController, PurposeService, k); err != nil {
					t.Fatalf("batch record %s unreadable after race: %v", k, err)
				}
			}
		})
	}
}

// FuzzCheckpointDelta holds the delta-frame decoder to the WAL
// decoder's standard: arbitrary bytes may be rejected with an error,
// never a panic or an attacker-sized allocation, and an accepted frame
// must re-encode through the same sorted-key framing losslessly.
func FuzzCheckpointDelta(f *testing.F) {
	db, err := OpenSharded(PBase(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeCheckpointDelta(db.Shard(0)))
	if err := db.Create(recTestRecord(0)); err != nil {
		f.Fatal(err)
	}
	if err := db.Create(recTestRecord(1)); err != nil {
		f.Fatal(err)
	}
	f.Add(encodeCheckpointDelta(db.Shard(0)))
	f.Add([]byte{})
	f.Add([]byte{checkpointDeltaVersion})
	f.Add([]byte{checkpointDeltaVersion + 1, 0, 0, 0, 0})
	f.Add(append(encodeCheckpointDelta(db.Shard(0)), 0xff)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeCheckpointDelta(data)
		if err != nil {
			return
		}
		// Accepted frames stay bounded by their input: the decoder must
		// not have conjured rows the bytes cannot carry.
		if len(d.deleted)*4 > len(data) || len(d.rows)*8 > len(data) {
			t.Fatalf("decoder inflated %d bytes into %d deletions + %d rows",
				len(data), len(d.deleted), len(d.rows))
		}
	})
}

// BenchmarkIngest is the allocation gate for the batched write path on
// all three backends: CI runs it with -benchtime=100x and budgets
// allocs/op divided by the batch size. Record construction happens off
// the clock so the numbers measure admission (policy synthesis,
// encryption, WAL framing, engine insertion), not the harness.
func BenchmarkIngest(b *testing.B) {
	for _, backend := range []string{BackendHeap, BackendLSM, BackendMmap} {
		for _, batch := range []int{1, 256} {
			b.Run(fmt.Sprintf("backend=%s/batch=%d", backend, batch), func(b *testing.B) {
				p := PBase()
				p.Backend = backend
				p.IncrementalCheckpoints = backend != BackendMmap
				db, err := OpenSharded(p, 4)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				next := 0
				recs := make([]gdprbench.Record, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := range recs {
						recs[j] = gdprbench.Record{
							Key:        fmt.Sprintf("bench-%010d", next),
							Subject:    fmt.Sprintf("bench-subject-%d", next%64),
							Payload:    []byte("bench-payload-0123456789abcdef"),
							Purposes:   []string{"analytics"},
							TTL:        1 << 40,
							Processors: []string{"processor-a"},
						}
						next++
					}
					b.StartTimer()
					if _, err := db.IngestBatch(recs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
