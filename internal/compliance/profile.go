// Package compliance composes the substrates into the paper's three
// GDPR-compliance profiles (§4.2) and exposes the DB facade the
// benchmark harness drives:
//
//   - P_Base: RBAC + native CSV logging (row-level responses) + AES-256
//     at rest + erasure by DELETE+VACUUM. Least restrictive, cheapest.
//   - P_GBench: policies in a separate metadata table (every access
//     joins) + full query/response logging + LUKS-like full-disk
//     encryption + erasure by plain DELETE.
//   - P_SYS: Sieve-style FGAC + AES-128 + encrypted logs carrying
//     policy snapshots at every operation + erasure by DELETE+VACUUM
//     FULL plus deletion of the erased units' log entries.
//
// Each profile also records its groundings in a core.GroundingRegistry,
// making the interpretation-to-system-action mapping inspectable — the
// heart of the paper's Figure 2 pipeline.
package compliance

import (
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/policy"
)

// VacuumStyle selects the maintenance grounding of a profile.
type VacuumStyle uint8

// Vacuum styles.
const (
	// VacuumNone never reclaims dead tuples (P_GBench's plain DELETE).
	VacuumNone VacuumStyle = iota
	// VacuumLazy runs lazy VACUUM when the dead ratio passes the
	// threshold (P_Base's DELETE+VACUUM).
	VacuumLazy
	// VacuumFull rewrites the table when the dead ratio passes the
	// threshold (P_SYS's DELETE+VACUUM FULL).
	VacuumFull
)

// String names the style.
func (v VacuumStyle) String() string {
	switch v {
	case VacuumNone:
		return "none"
	case VacuumLazy:
		return "lazy"
	case VacuumFull:
		return "full"
	default:
		return fmt.Sprintf("vacuum(%d)", uint8(v))
	}
}

// Storage backends for Profile.Backend.
const (
	// BackendHeap is the PostgreSQL-style heap engine: deletes mark
	// tuples dead in place and the vacuum family physically reclaims
	// them (the default).
	BackendHeap = "heap"
	// BackendLSM is the Cassandra-style LSM engine: deletes write
	// tombstones and the erased bytes stay physically resident until
	// compaction — with every regulation-mandated delete registering a
	// purge obligation that bounds that residency (erase-aware
	// compaction).
	BackendLSM = "lsm"
	// BackendMmap is the durable-region heap engine: the table lives in
	// a flat mmap-style byte region whose pages ARE the durable state —
	// mutations are redo-logged in-place transactions, a checkpoint is a
	// page-table snapshot (no row serialization), and recovery
	// re-attaches the crashed region instead of decoding a segment
	// image, so it needs the region snapshots alongside the WAL images
	// (RecoverShardedWithRegions / ShardedDB.Recover).
	BackendMmap = "mmap"
)

// Profile is a complete, grounded interpretation of GDPR compliance.
type Profile struct {
	Name        string
	Description string

	// Backend selects the storage engine of the data table: BackendHeap
	// (the default when empty), BackendLSM, or BackendMmap. Every shard
	// of a sharded deployment uses the same backend; crash recovery
	// rebuilds against the profile's backend, so recover with the
	// crashed deployment's Profile().
	Backend string
	// PurgeWithinOps bounds, for BackendLSM, how many storage
	// operations a purge obligation (registered by every
	// regulation-mandated delete) may stay undischarged before the
	// engine forces the purge compaction. 0 selects the engine default.
	PurgeWithinOps int
	// LSMFlushEntries sets, for BackendLSM, the memtable size in
	// entries before a flush to an sstable run. 0 selects the engine
	// default; tests and benchmarks shrink it so the tombstone
	// retention hazard (shadowed versions in runs) actually forms.
	LSMFlushEntries int

	// NewPolicyEngine builds the profile's access-control engine.
	NewPolicyEngine func() policy.Engine
	// NewLogger builds the profile's audit logger.
	NewLogger func() (audit.Logger, error)

	// PayloadCipher is the at-rest key size for sealed payloads; 0 means
	// the profile uses the LUKS-like block device instead.
	PayloadCipher cryptox.KeySize
	// PayloadKey is the at-rest key itself — the secret a real
	// deployment fetches from its KMS at boot, which survives a crash
	// while process memory does not. Leave it nil and Open/OpenSharded
	// draw a fresh random key, materializing it into the deployment's
	// profile: recover with Profile() of the crashed instance, never
	// with a freshly constructed one. It must be PayloadCipher bytes
	// long when set.
	PayloadKey []byte
	// UseBlockDev stores payloads on an encrypted block device.
	UseBlockDev bool

	// LogResponses records operation responses in the audit log.
	LogResponses bool
	// LogPolicySnapshots serializes the policies in force into every
	// log entry (P_SYS's demonstrable accountability).
	LogPolicySnapshots bool

	// Vacuum is the maintenance grounding; Threshold is the dead-tuple
	// ratio that triggers it.
	Vacuum          VacuumStyle
	VacuumThreshold float64
	// VacuumCheckEvery is how many mutating ops pass between dead-ratio
	// checks (the autovacuum naptime analogue).
	VacuumCheckEvery int

	// EraseLogsOnDelete removes the audit entries of deleted units
	// (P_SYS's log deletion).
	EraseLogsOnDelete bool
	// CascadeDependents strong-deletes derived records in which the
	// erased subject remains identifiable (§3.1's strong deletion; the
	// P_SYS grounding).
	CascadeDependents bool

	// TrackModel mirrors every record as a core.DataUnit with history,
	// enabling invariant checking (costs memory; off for large benches).
	TrackModel bool

	// SerialWAL commits the write-ahead log with per-append locking
	// instead of group commit. The default (false) is group commit; the
	// serial mode exists as the benchmark baseline the group-commit
	// experiments compare against.
	SerialWAL bool

	// NoDecisionCache disables the epoch-invalidated policy decision
	// cache. The default (false) wraps the profile's policy engine in
	// policy.NewCached: repeated adjudications of the same (unit,
	// entity, purpose, action) are served from memory, with every
	// consent-changing mutation bumping the invalidation epoch before it
	// commits — a cached allow can never outlive the consent that
	// justified it. The uncached mode is the benchmark baseline and an
	// escape hatch for engines with At-dependent guards (the standard
	// engines have none).
	NoDecisionCache bool
	// DecisionCacheEntries bounds the decision cache; 0 selects
	// policy.DefaultCacheEntries.
	DecisionCacheEntries int

	// SyncAudit writes every audit record synchronously on the
	// operation's goroutine. The default (false) routes allowed hot-path
	// read records through a bounded async sink (audit.AsyncLogger) —
	// denials, mutations and regulation-required records always stay
	// synchronous, and the sink flushes at every audit, checkpoint, log
	// inspection, log erasure and close, so nothing observable ever
	// misses a record. The sink's queue is audit.DefaultAsyncDepth deep;
	// a full queue blocks readers (bounded backpressure) — records are
	// never dropped. The synchronous mode is the benchmark baseline.
	SyncAudit bool

	// ExclusiveReads makes the read path take the shard's exclusive
	// lock, as the pre-concurrent engine did — reads serialize behind
	// each other and behind writers. It exists as the read-scaling
	// experiment's baseline ("one big mutex") and is never what a
	// deployment wants.
	ExclusiveReads bool

	// IOStall models the storage-device access latency this in-memory
	// substrate otherwise elides: when positive, every payload
	// protect/unprotect sleeps this long, the way a real deployment
	// waits on its disk or KMS. Concurrency experiments set it to make
	// lock-granularity effects measurable — under the exclusive-lock
	// baseline stalls serialize, under the shared-lock read path they
	// overlap. 0 (the default) disables the model entirely.
	IOStall time.Duration

	// WALSyncStall models the device latency of one WAL sync (fsync):
	// when positive, every durable commit — serial or group — sleeps
	// this long exactly once, however many records it carries. It is
	// the cost batched ingestion amortizes: N serial creates pay N
	// stalls, one N-record batch pays one. 0 (the default) keeps syncs
	// free, matching the historical in-memory behavior.
	WALSyncStall time.Duration

	// CheckpointEveryOps, when positive, makes each deployment (each
	// shard, in a sharded deployment) take a durable WAL checkpoint
	// every N mutating operations, truncating the log up to it. 0
	// disables the ops trigger.
	CheckpointEveryOps int
	// CheckpointEveryBytes, when positive, triggers a checkpoint once
	// the WAL has grown that many bytes since the last one. 0 disables
	// the bytes trigger. Either trigger firing takes the checkpoint.
	CheckpointEveryBytes int64

	// TrackSubjectLoad keeps a per-subject operation counter on each
	// shard, feeding the rebalancer's split planning (which subjects to
	// move off a hot shard). One map update per routed op; off by
	// default so steady-state deployments pay nothing.
	TrackSubjectLoad bool

	// RebalanceByBytes makes the Rebalancer weigh shards (and rank
	// subjects in split planning) by per-subject byte volume from the
	// storage engine's space accounting instead of op-rate counters: a
	// shard can be cold in ops yet dominate disk, and a byte-weighted
	// plan moves the bulk, not the chatter. Off by default.
	RebalanceByBytes bool

	// IncrementalCheckpoints makes the periodic checkpointer emit delta
	// frames — only the rows dirtied since the last checkpoint, chained
	// to the last full image — instead of a full table snapshot every
	// time, turning checkpoint cost from O(table) to O(dirty). A full
	// image is still forced every FullCheckpointEvery deltas (and is the
	// only point the WAL truncates at). Off by default.
	IncrementalCheckpoints bool
	// FullCheckpointEvery bounds how many consecutive delta frames may
	// chain to one full image before the next checkpoint is forced full;
	// 0 selects DefaultFullCheckpointEvery. Only meaningful with
	// IncrementalCheckpoints.
	FullCheckpointEvery int
}

// DefaultFullCheckpointEvery is the delta-chain length cap when
// Profile.FullCheckpointEvery is 0: after this many delta frames the
// next checkpoint is forced full, re-anchoring the chain and letting
// the WAL truncate.
const DefaultFullCheckpointEvery = 8

// validate rejects incomplete profiles.
func (p Profile) validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("compliance: profile needs a name")
	case p.NewPolicyEngine == nil:
		return fmt.Errorf("compliance: profile %s needs a policy engine", p.Name)
	case p.NewLogger == nil:
		return fmt.Errorf("compliance: profile %s needs a logger", p.Name)
	case !p.UseBlockDev && !p.PayloadCipher.Valid():
		return fmt.Errorf("compliance: profile %s needs a payload cipher or block device", p.Name)
	case len(p.PayloadKey) > 0 && cryptox.KeySize(len(p.PayloadKey)) != p.PayloadCipher:
		return fmt.Errorf("compliance: profile %s payload key is %d bytes, cipher wants %d",
			p.Name, len(p.PayloadKey), int(p.PayloadCipher))
	case p.VacuumThreshold < 0 || p.VacuumThreshold > 1:
		return fmt.Errorf("compliance: profile %s has vacuum threshold %f", p.Name, p.VacuumThreshold)
	case p.Backend != "" && p.Backend != BackendHeap && p.Backend != BackendLSM && p.Backend != BackendMmap:
		return fmt.Errorf("compliance: profile %s has unknown storage backend %q (want %q, %q, or %q)",
			p.Name, p.Backend, BackendHeap, BackendLSM, BackendMmap)
	case p.Backend == BackendMmap && p.UseBlockDev:
		return fmt.Errorf("compliance: profile %s combines the mmap backend with a block device; "+
			"the region already is the durable byte store", p.Name)
	}
	return nil
}

// PBase returns the P_Base profile: role-based access control, native
// CSV logging with row-level responses, AES-256, DELETE+VACUUM.
func PBase() Profile {
	return Profile{
		Name: "P_Base",
		Description: "RBAC + CSV logs (row-level responses) + AES-256 + " +
			"DELETE+VACUUM; the least restrictive grounding",
		NewPolicyEngine: func() policy.Engine { return policy.NewRBAC() },
		NewLogger: func() (audit.Logger, error) {
			return audit.NewCSVLogger(true), nil
		},
		PayloadCipher:    cryptox.AES256,
		LogResponses:     true,
		Vacuum:           VacuumLazy,
		VacuumThreshold:  0.2,
		VacuumCheckEvery: 256,
	}
}

// PGBench returns the P_GBench profile: policies in a separate metadata
// table (joins on every access), full query+response logging, LUKS-like
// block-device encryption, plain DELETE.
func PGBench() Profile {
	return Profile{
		Name: "P_GBench",
		Description: "separate policy table (joins) + full query logging + " +
			"LUKS-like block device + plain DELETE",
		NewPolicyEngine: func() policy.Engine { return policy.NewMetaStore() },
		NewLogger: func() (audit.Logger, error) {
			return audit.NewQueryLogger(), nil
		},
		UseBlockDev:      true,
		LogResponses:     true,
		Vacuum:           VacuumNone,
		VacuumCheckEvery: 256,
	}
}

// PSYS returns the P_SYS profile: Sieve-style fine-grained access
// control, AES-128, encrypted logs with per-operation policy snapshots,
// DELETE+VACUUM FULL plus log deletion.
func PSYS() Profile {
	return Profile{
		Name: "P_SYS",
		Description: "Sieve-style FGAC + AES-128 + encrypted logs with policy " +
			"snapshots + DELETE+VACUUM FULL + log erasure",
		NewPolicyEngine: func() policy.Engine {
			return policy.NewSieve(policy.SubjectConsentGuard())
		},
		NewLogger: func() (audit.Logger, error) {
			key, err := cryptox.GenerateKey(cryptox.AES128)
			if err != nil {
				return nil, err
			}
			sealer, err := cryptox.NewAESGCM(key, nil)
			if err != nil {
				return nil, err
			}
			return audit.NewEncryptedLogger(sealer), nil
		},
		PayloadCipher:      cryptox.AES128,
		LogResponses:       true,
		LogPolicySnapshots: true,
		Vacuum:             VacuumFull,
		VacuumThreshold:    0.2,
		VacuumCheckEvery:   256,
		EraseLogsOnDelete:  true,
		CascadeDependents:  true,
	}
}

// Profiles returns the three paper profiles in Figure-4 order.
func Profiles() []Profile {
	return []Profile{PBase(), PGBench(), PSYS()}
}

// PaperBaseline returns the profile with the post-paper accelerators
// disabled: no decision cache, fully synchronous audit logging. The
// paper's systems (PostgreSQL, the GDPRBench stores, Sieve) pay their
// full adjudication and logging tax on every operation — figure
// reproductions must measure that configuration, or the cache would
// quietly reorder the groundings' costs (it accelerates the strict
// profiles most, which is the point of the read-path redesign but not
// of Figure 4).
func (p Profile) PaperBaseline() Profile {
	p.NoDecisionCache = true
	p.SyncAudit = true
	return p
}

// Groundings records the profile's concept interpretations and their
// system-action mappings in a registry (Figure 2's pipeline, made
// inspectable).
func (p Profile) Groundings() *core.GroundingRegistry {
	r := core.NewGroundingRegistry(p.Name)
	// Errors are impossible below: names are distinct literals.
	_ = core.DeclareErasureInterpretations(r)
	switch p.Vacuum {
	case VacuumLazy:
		_ = r.Choose(core.ConceptErasure, core.EraseDelete.String(),
			core.SystemAction{System: "psql-like-heap", Operation: "DELETE+VACUUM", Supported: true})
	case VacuumNone:
		_ = r.Choose(core.ConceptErasure, core.EraseDelete.String(),
			core.SystemAction{System: "psql-like-heap", Operation: "DELETE", Supported: true},
			core.SystemAction{System: "blockdev", Operation: "orphan sector (retained!)", Supported: false})
	case VacuumFull:
		_ = r.Choose(core.ConceptErasure, core.EraseStrongDelete.String(),
			core.SystemAction{System: "psql-like-heap", Operation: "DELETE+VACUUM FULL", Supported: true},
			core.SystemAction{System: "audit", Operation: "erase unit log entries", Supported: true})
	}
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptPolicy, Name: "rbac",
		Description: "role-based, table-level", Strictness: 0,
	})
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptPolicy, Name: "metadata-join",
		Description: "per-unit policy rows joined at query time", Strictness: 1,
	})
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptPolicy, Name: "fgac",
		Description: "fine-grained guarded policies with a policy index", Strictness: 2,
	})
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptHistory, Name: "csv-log",
		Description: "native CSV logging, row-level responses", Strictness: 0,
	})
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptHistory, Name: "query-log",
		Description: "all queries and responses, structured", Strictness: 1,
	})
	_ = r.Declare(core.Interpretation{
		Concept: core.ConceptHistory, Name: "encrypted-log",
		Description: "sealed entries with policy snapshots", Strictness: 2,
	})
	switch p.Name {
	case "P_Base":
		_ = r.Choose(core.ConceptPolicy, "rbac",
			core.SystemAction{System: "rbac", Operation: "role attribute check", Supported: true})
		_ = r.Choose(core.ConceptHistory, "csv-log",
			core.SystemAction{System: "audit", Operation: "csv append", Supported: true})
	case "P_GBench":
		_ = r.Choose(core.ConceptPolicy, "metadata-join",
			core.SystemAction{System: "metastore", Operation: "index range join", Supported: true})
		_ = r.Choose(core.ConceptHistory, "query-log",
			core.SystemAction{System: "audit", Operation: "structured append", Supported: true})
	case "P_SYS":
		_ = r.Choose(core.ConceptPolicy, "fgac",
			core.SystemAction{System: "sieve", Operation: "policy-index probe + guards", Supported: true})
		_ = r.Choose(core.ConceptHistory, "encrypted-log",
			core.SystemAction{System: "audit", Operation: "seal + append", Supported: true})
	}
	return r
}
