package main

import (
	"context"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/repl"
	"github.com/datacase/datacase/internal/wire"
)

// deployment is one workload's serving stack, built from the program's
// public constructors only.
type deployment struct {
	sp *spec
	// dbs are the authoritative databases: one, or one per backend
	// server on the wire topology.
	dbs []*compliance.ShardedDB
	// clients[c] is the api.Client client c drives.
	clients []api.Client
	// replicaClients[c] is client c's read-only view of the replica
	// (topoRepl only, after startReplica).
	replicaClients []api.Client
	primary        *repl.Primary
	replica        *repl.Replica
	tr             *tracer
	// closers run in reverse order at teardown.
	closers []func() error
}

// assertKnobsZero fails when any simulated-stall or ablation knob of
// the profile is set: the benchmark measures the program as deployed.
func assertKnobsZero(p compliance.Profile) error {
	switch {
	case p.IOStall != 0, p.WALSyncStall != 0:
		return fmt.Errorf("profile %s: simulated stalls are set", p.Name)
	case p.SerialWAL, p.NoDecisionCache, p.SyncAudit, p.ExclusiveReads:
		return fmt.Errorf("profile %s: a baseline/ablation knob is set", p.Name)
	case p.TrackModel, p.TrackSubjectLoad, p.RebalanceByBytes, p.IncrementalCheckpoints:
		return fmt.Errorf("profile %s: an experiment knob is set", p.Name)
	}
	return nil
}

// wrap decorates c with span recording when the run is traced.
func (d *deployment) wrap(l layer, owner int, c api.Client) api.Client {
	if d.tr == nil {
		return c
	}
	return d.tr.traced(l, owner, c)
}

// deploy opens the workload's stack. totalDraws sizes the checkpoint
// interval of checkpointing workloads.
func deploy(sp *spec, totalDraws int, tr *tracer) (*deployment, error) {
	d := &deployment{sp: sp, tr: tr}
	if err := d.open(totalDraws); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// open builds the stack, registering a closer for each piece as it
// comes up, so a failure half-way leaves deploy something to tear down.
func (d *deployment) open(totalDraws int) error {
	sp := d.sp
	prof := sp.profile()
	if sp.checkpointCycles > 0 {
		prof.CheckpointEveryOps = max(1, totalDraws/(sp.shards*sp.checkpointCycles))
	}
	if err := assertKnobsZero(prof); err != nil {
		return err
	}
	openDB := func() (*compliance.ShardedDB, error) {
		db, err := compliance.OpenSharded(prof, sp.shards)
		if err != nil {
			return nil, err
		}
		d.dbs = append(d.dbs, db)
		d.closers = append(d.closers, db.Close)
		return db, nil
	}
	if sp.topo != topoWire {
		db, err := openDB()
		if err != nil {
			return err
		}
		for c := 0; c < nClients; c++ {
			d.clients = append(d.clients, d.wrap(layerClient, c, api.NewLocal(db)))
		}
		if sp.topo == topoRepl {
			p, err := repl.NewPrimary(db, repl.PrimaryConfig{})
			if err != nil {
				return err
			}
			d.primary = p
			d.closers = append(d.closers, p.Close)
			if _, err := p.Listen("127.0.0.1:0"); err != nil {
				return err
			}
		}
		return nil
	}
	listen := func(backend api.Client) (string, error) {
		srv := wire.NewServer(backend)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return "", err
		}
		d.closers = append(d.closers, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return srv.Shutdown(ctx)
		})
		return srv.Addr(), nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := openDB()
		if err != nil {
			return err
		}
		addr, err := listen(d.wrap(layerBackend, 0, api.NewLocal(db)))
		if err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	// The gateway is wire.NewGateway's own composition — a Server
	// hosting a Router — spelled out so the Router can be decorated.
	router, err := wire.NewRouter(1, addrs)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, router.Close)
	gateway, err := listen(d.wrap(layerGateway, 0, router))
	if err != nil {
		return err
	}
	for c := 0; c < nClients; c++ {
		rc, err := wire.Dial(gateway)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, rc.Close)
		d.clients = append(d.clients, d.wrap(layerClient, c, rc))
	}
	return nil
}

// startReplica attaches the read replica to the still-empty primary
// (topoRepl). The preload then reaches it the way all later writes do,
// as shipped WAL batches: a snapshot bootstrap of the loaded dataset
// would not fit one wire frame (MaxPayload is 16 MiB per shard image).
func (d *deployment) startReplica() error {
	r, err := repl.StartReplica(d.primary.Addr().String(), d.dbs[0].Profile(), repl.ReplicaConfig{ID: "bench-replica"})
	if err != nil {
		return err
	}
	d.replica = r
	d.closers = append(d.closers, r.Close)
	for c := 0; c < nClients; c++ {
		d.replicaClients = append(d.replicaClients, d.wrap(layerClient, c, r.Client()))
	}
	return nil
}

// awaitReplica blocks until the replica has applied everything the
// primary has made durable.
func (d *deployment) awaitReplica() error {
	db := d.dbs[0]
	deadline := time.Now().Add(60 * time.Second)
	for shard := 0; shard < db.NumShards(); shard++ {
		lsn, err := db.ShardDurable(shard)
		if err != nil {
			return err
		}
		for d.replica.Applied(shard) < lsn {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica did not catch up with the preload (shard %d at %d of %d)",
					shard, d.replica.Applied(shard), lsn)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// statDBs are the databases whose counters a snapshot sums: the
// authoritative ones plus the replica's, whose policy engine and read
// counters serve half of the replicated workload.
func (d *deployment) statDBs() []*compliance.ShardedDB {
	if d.replica == nil {
		return d.dbs
	}
	return append(append([]*compliance.ShardedDB(nil), d.dbs...), d.replica.DB())
}

// close tears the stack down, clients first.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		// Teardown errors cannot change a result already measured.
		_ = d.closers[i]()
	}
	d.closers = nil
}
