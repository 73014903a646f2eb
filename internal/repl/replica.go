package repl

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/wal"
	"github.com/datacase/datacase/internal/wire"
)

// ReplicaConfig tunes a replica.
type ReplicaConfig struct {
	// ID names the replica to the primary (ack tracking, fencing). A
	// random one is drawn when empty.
	ID string
	// PollWait is the long-poll budget offered per pull. Default
	// 250ms.
	PollWait time.Duration
	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
	// RetryInterval paces reconnect and re-bootstrap attempts.
	// Default 20ms.
	RetryInterval time.Duration
}

func (c ReplicaConfig) withDefaults() (ReplicaConfig, error) {
	if c.ID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return c, err
		}
		c.ID = "replica-" + hex.EncodeToString(b[:])
	}
	if c.PollWait <= 0 {
		c.PollWait = 250 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 20 * time.Millisecond
	}
	return c, nil
}

// Replica is a read replica: a full ShardedDB bootstrapped from the
// primary's segment snapshots and kept current by per-shard pull
// loops. Reads are served locally through Client; every mutation is
// refused with api.ErrReadOnlyReplica.
type Replica struct {
	primary string
	profile compliance.Profile
	cfg     ReplicaConfig

	// mu guards the current generation: the deployment, its local
	// adapter and the per-shard applied cursors (primary LSNs). A
	// resync replaces all three together.
	mu      sync.RWMutex
	db      *compliance.ShardedDB
	local   api.Client
	applied []wal.LSN

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// promoted: pulls stopped for promotion; Close must not close the
	// deployment out from under the promoted primary's caller.
	promoted bool
}

// StartReplica bootstraps a replica of the primary at addr (hello,
// per-shard snapshots, recovery rebuild) and starts the pull loops.
// The profile must match the primary's configuration; the at-rest
// payload key is NOT needed (the replication handshake plays KMS and
// ships it, exactly as the recovery path assumes).
func StartReplica(addr string, p compliance.Profile, cfg ReplicaConfig) (*Replica, error) {
	if p.UseBlockDev {
		return nil, fmt.Errorf("repl: block-device profiles cannot replicate segment images")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Replica{
		primary: addr,
		profile: p,
		cfg:     cfg,
		closed:  make(chan struct{}),
	}
	db, applied, err := r.bootstrap()
	if err != nil {
		return nil, err
	}
	r.install(db, applied)
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// ID returns the replica's identity.
func (r *Replica) ID() string { return r.cfg.ID }

// DB exposes the replica's current deployment (tests, reports).
func (r *Replica) DB() *compliance.ShardedDB {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.db
}

// Client returns the replica's read-only API: reads serve locally
// from the replicated state, mutations fail with
// api.ErrReadOnlyReplica. The client stays valid across resyncs.
// Closing it does not close the replica.
func (r *Replica) Client() api.Client {
	return readOnly{reads: r.localClient, close: func() error { return nil }}
}

// Applied returns the highest primary LSN applied for a shard.
func (r *Replica) Applied(shard int) wal.LSN {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if shard < 0 || shard >= len(r.applied) {
		return 0
	}
	return r.applied[shard]
}

// Position sums the applied primary LSNs across shards: the total
// order two replicas of the same primary compare by for promotion.
func (r *Replica) Position() wal.LSN {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sum wal.LSN
	for _, l := range r.applied {
		sum += l
	}
	return sum
}

// Close stops the pull loops, says goodbye to the primary (so
// barriers stop counting this replica) and closes the local
// deployment.
func (r *Replica) Close() error {
	r.stop()
	r.bye()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return nil // the promoted deployment changed hands
	}
	return r.db.Close()
}

func (r *Replica) stop() {
	r.closeOnce.Do(func() { close(r.closed) })
	r.wg.Wait()
}

// bye deregisters from the primary, best-effort.
func (r *Replica) bye() {
	c, err := dialConn(r.primary, r.cfg.DialTimeout)
	if err != nil {
		return
	}
	defer c.close()
	_, _ = c.call(wire.OpReplBye, wire.ReplByeRequest{ReplicaID: r.cfg.ID}, r.cfg.DialTimeout)
}

// install publishes a freshly bootstrapped generation and returns the
// previous deployment (nil on first install).
func (r *Replica) install(db *compliance.ShardedDB, applied []wal.LSN) *compliance.ShardedDB {
	r.mu.Lock()
	old := r.db
	r.db = db
	r.local = api.NewLocal(db)
	r.applied = applied
	r.mu.Unlock()
	return old
}

func (r *Replica) localClient() api.Client {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.local
}

func (r *Replica) appliedLSN(shard int) wal.LSN {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.applied[shard]
}

func (r *Replica) noteApplied(shard int, lsn wal.LSN) {
	r.mu.Lock()
	if lsn > r.applied[shard] {
		r.applied[shard] = lsn
	}
	r.mu.Unlock()
}

func (r *Replica) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// sleep pauses for d unless the replica closes first.
func (r *Replica) sleep(d time.Duration) bool {
	select {
	case <-r.closed:
		return false
	case <-time.After(d):
		return true
	}
}

// bootstrap builds a fresh deployment from the primary: hello (shape
// and payload key), one snapshot per shard, then the recovery rebuild.
// The per-shard applied cursors start at each image's own last LSN —
// the recovery walk of the image IS the application of everything in
// it.
func (r *Replica) bootstrap() (*compliance.ShardedDB, []wal.LSN, error) {
	c, err := dialConn(r.primary, r.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	timeout := r.cfg.DialTimeout + maxPullWait

	hr, err := c.call(wire.OpReplHello, wire.ReplHelloRequest{ReplicaID: r.cfg.ID}, timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: hello: %w", err)
	}
	hello := hr.(wire.ReplHelloResponse)
	if hello.Shards == 0 {
		return nil, nil, fmt.Errorf("repl: primary reports zero shards")
	}
	if hello.Profile != r.profile.Name {
		return nil, nil, fmt.Errorf("repl: profile mismatch: primary %q, replica %q", hello.Profile, r.profile.Name)
	}
	if len(hello.PayloadKey) == 0 {
		return nil, nil, fmt.Errorf("repl: primary shipped no payload key")
	}

	images := make([][]byte, hello.Shards)
	applied := make([]wal.LSN, hello.Shards)
	for i := range images {
		sr, err := c.call(wire.OpReplSnapshot,
			wire.ReplSnapshotRequest{ReplicaID: r.cfg.ID, Shard: uint32(i)}, timeout)
		if err != nil {
			return nil, nil, fmt.Errorf("repl: snapshot shard %d: %w", i, err)
		}
		images[i] = sr.(wire.ReplSnapshotResponse).Image
		applied[i] = wal.ScanSegment(images[i]).Info.LastLSN
	}

	prof := r.profile
	prof.PayloadKey = hello.PayloadKey
	db, _, err := compliance.RecoverSharded(prof, images)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: bootstrap recovery: %w", err)
	}
	return db, applied, nil
}

// run supervises pull generations: each runs until the replica closes
// or some shard demands a resync, in which case the whole generation
// is torn down and rebuilt from fresh snapshots (the stream cannot
// continue across a truncation gap or a topology change).
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		resync := r.pullGeneration()
		if r.isClosed() || !resync {
			return
		}
		for {
			db, applied, err := r.bootstrap()
			if err == nil {
				if old := r.install(db, applied); old != nil {
					old.Close()
				}
				break
			}
			if !r.sleep(r.cfg.RetryInterval) {
				return
			}
		}
	}
}

// pullGeneration runs one puller per shard against the current
// generation and waits them out; it reports whether any demanded a
// resync (all pullers stop as soon as one does).
func (r *Replica) pullGeneration() bool {
	db := r.DB()
	stop := make(chan struct{})
	var stopOnce sync.Once
	resync := false
	var mu sync.Mutex
	demand := func() {
		mu.Lock()
		resync = true
		mu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}
	var wg sync.WaitGroup
	for i := 0; i < db.NumShards(); i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			r.pullShard(db, shard, stop, demand)
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return resync
}

// pullShard is one shard's stream: long-poll the primary after the
// applied cursor, apply what comes back, ack by pulling again.
// Transport errors redial forever (a primary restart or partition is
// lag, not death); Resync answers and topology-change records hand
// control back to the supervisor.
func (r *Replica) pullShard(db *compliance.ShardedDB, shard int, stop <-chan struct{}, demandResync func()) {
	var c *replConn
	defer func() { c.close() }()
	for {
		select {
		case <-r.closed:
			return
		case <-stop:
			return
		default:
		}
		if c == nil {
			nc, err := dialConn(r.primary, r.cfg.DialTimeout)
			if err != nil {
				if !r.sleep(r.cfg.RetryInterval) {
					return
				}
				continue
			}
			c = nc
		}
		after := r.appliedLSN(shard)
		pr, err := c.call(wire.OpReplPull, wire.ReplPullRequest{
			ReplicaID:  r.cfg.ID,
			Shard:      uint32(shard),
			After:      int64(after),
			WaitMicros: uint32(r.cfg.PollWait / time.Microsecond),
		}, r.cfg.PollWait+r.cfg.DialTimeout+maxPullWait)
		if err != nil {
			c.close()
			c = nil
			if !r.sleep(r.cfg.RetryInterval) {
				return
			}
			continue
		}
		pull := pr.(wire.ReplPullResponse)
		if pull.Resync {
			demandResync()
			return
		}
		if len(pull.Batch) == 0 {
			continue
		}
		st, err := db.ApplyReplicatedBatch(shard, pull.Batch, after)
		if st.LastLSN > 0 {
			r.noteApplied(shard, st.LastLSN)
		}
		if err != nil {
			if errors.Is(err, compliance.ErrReplTopologyChanged) {
				demandResync()
				return
			}
			// A mid-batch apply error past the intact prefix: re-pull
			// from the acked prefix after a pause.
			if !r.sleep(r.cfg.RetryInterval) {
				return
			}
		}
	}
}
