// Package datacase is the public API of the Data-CASE reproduction: a
// formal framework for grounding data regulations (GDPR and kin) into
// checkable invariants and concrete system-actions, plus the complete
// experimental stack of the paper (EDBT 2024, arXiv:2308.07501).
//
// The model (data units, policies, actions, histories, invariants,
// groundings) lives in internal/core and is re-exported here; the
// substrates (a PostgreSQL-like heap engine, an LSM engine with
// tombstones, policy engines, audit loggers, crypto, provenance, the
// erasure engine) live under internal/ and are reachable through the
// compliance profiles and the experiment runners below.
//
// Quick start:
//
//	db, err := datacase.OpenProfile(datacase.PBase())
//	...
//	report, err := db.Audit(datacase.DefaultGDPRInvariants())
package datacase

import (
	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/benchx"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/repl"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/wal"
	"github.com/datacase/datacase/internal/wire"
	"github.com/datacase/datacase/internal/ycsb"
)

// ---- Formal model (Data-CASE concepts, §2 of the paper) ----

// Core model types.
type (
	// Time is the logical timestamp of the model.
	Time = core.Time
	// Clock issues monotone logical timestamps.
	Clock = core.Clock
	// Entity is a data subject, controller, processor or auditor.
	Entity = core.Entity
	// EntityID identifies an entity.
	EntityID = core.EntityID
	// EntityRole classifies entities.
	EntityRole = core.EntityRole
	// Purpose names a task data is processed for.
	Purpose = core.Purpose
	// PurposeSpec grounds a purpose into authorized actions.
	PurposeSpec = core.PurposeSpec
	// PurposeRegistry holds grounded purposes.
	PurposeRegistry = core.PurposeRegistry
	// Policy is ⟨purpose, entity, t_b, t_f⟩.
	Policy = core.Policy
	// PolicySet is the policy aspect of a data unit.
	PolicySet = core.PolicySet
	// DataUnit is X = (S, O, V, P).
	DataUnit = core.DataUnit
	// UnitID identifies a data unit.
	UnitID = core.UnitID
	// UnitKind is base/derived/metadata.
	UnitKind = core.UnitKind
	// UnitState is the snapshot X(t).
	UnitState = core.UnitState
	// Database is the model-level collection of units.
	Database = core.Database
	// Action is τ: an operation on data units.
	Action = core.Action
	// ActionKind classifies actions.
	ActionKind = core.ActionKind
	// HistoryTuple is (X, p, e, τ(X), t).
	HistoryTuple = core.HistoryTuple
	// History is the append-only action-history H.
	History = core.History
	// Invariant is a regulation requirement stated formally.
	Invariant = core.Invariant
	// InvariantSet is an ordered set of invariants.
	InvariantSet = core.InvariantSet
	// CheckContext is what invariants inspect.
	CheckContext = core.CheckContext
	// Violation is one invariant failure.
	Violation = core.Violation
	// Regulation is a taxonomy of articles (Figure 1).
	Regulation = core.Regulation
	// Article is one regulation article.
	Article = core.Article
	// RequirementCategory is a Figure-1 category.
	RequirementCategory = core.RequirementCategory
	// Concept is a groundable Data-CASE concept.
	Concept = core.Concept
	// Interpretation is one reading of a concept.
	Interpretation = core.Interpretation
	// SystemAction is a concrete engine operation.
	SystemAction = core.SystemAction
	// Grounding binds a concept to an interpretation and actions.
	Grounding = core.Grounding
	// GroundingRegistry records a deployment's groundings.
	GroundingRegistry = core.GroundingRegistry
	// ErasureInterpretation is one of the four erasure readings (§3.1).
	ErasureInterpretation = core.ErasureInterpretation
	// ErasureProperties are the IR/II/Inv characteristics.
	ErasureProperties = core.ErasureProperties
	// ErasureTimeline is the Figure-3 timeline.
	ErasureTimeline = core.ErasureTimeline
)

// Entity roles.
const (
	RoleDataSubject = core.RoleDataSubject
	RoleController  = core.RoleController
	RoleProcessor   = core.RoleProcessor
	RoleAuditor     = core.RoleAuditor
	RoleRegulator   = core.RoleRegulator
)

// Unit kinds.
const (
	KindBase     = core.KindBase
	KindDerived  = core.KindDerived
	KindMetadata = core.KindMetadata
)

// Action kinds.
const (
	ActionCreate        = core.ActionCreate
	ActionRead          = core.ActionRead
	ActionWrite         = core.ActionWrite
	ActionReadMetadata  = core.ActionReadMetadata
	ActionWriteMetadata = core.ActionWriteMetadata
	ActionStore         = core.ActionStore
	ActionShare         = core.ActionShare
	ActionDerive        = core.ActionDerive
	ActionDelete        = core.ActionDelete
	ActionErase         = core.ActionErase
	ActionRestore       = core.ActionRestore
	ActionConsent       = core.ActionConsent
	ActionSanitize      = core.ActionSanitize
)

// Erasure interpretations in increasing strictness (§3.1).
const (
	EraseReversiblyInaccessible = core.EraseReversiblyInaccessible
	EraseDelete                 = core.EraseDelete
	EraseStrongDelete           = core.EraseStrongDelete
	ErasePermanentDelete        = core.ErasePermanentDelete
)

// Regulation-defined purposes.
const (
	PurposeComplianceErase = core.PurposeComplianceErase
	PurposeRetention       = core.PurposeRetention
	PurposeAudit           = core.PurposeAudit
)

// Sentinel times.
const (
	TimeZero = core.TimeZero
	TimeMax  = core.TimeMax
)

// Model constructors.
var (
	// NewDatabase returns an empty model database.
	NewDatabase = core.NewDatabase
	// NewHistory returns an empty action-history.
	NewHistory = core.NewHistory
	// NewDataUnit constructs a base or metadata unit.
	NewDataUnit = core.NewDataUnit
	// NewDerivedUnit constructs a derived unit from sources.
	NewDerivedUnit = core.NewDerivedUnit
	// NewPolicySet returns an empty policy set.
	NewPolicySet = core.NewPolicySet
	// NewEntityRegistry returns an empty entity directory.
	NewEntityRegistry = core.NewEntityRegistry
	// NewPurposeRegistry returns the default grounded purposes.
	NewPurposeRegistry = core.NewPurposeRegistry
	// NewGroundingRegistry returns an empty grounding registry.
	NewGroundingRegistry = core.NewGroundingRegistry
	// DeclareErasureInterpretations declares the four §3.1 readings.
	DeclareErasureInterpretations = core.DeclareErasureInterpretations
	// GDPR returns the Figure-1 article taxonomy.
	GDPR = core.GDPR
	// CCPA, VDPA and PIPEDA are the other implemented taxonomies
	// (multinational scenarios, §4.3).
	CCPA   = core.CCPA
	VDPA   = core.VDPA
	PIPEDA = core.PIPEDA
	// Regulations returns every implemented taxonomy.
	Regulations = core.Regulations
	// NewBreachNotificationInvariant is G33/G34 (category VIII).
	NewBreachNotificationInvariant = core.NewBreachNotificationInvariant
	// Categories returns the Figure-1 categories.
	Categories = core.Categories
	// ErasureInterpretations returns the four readings in order.
	ErasureInterpretations = core.ErasureInterpretations
	// CharacteristicsOf returns Table 1's declared properties.
	CharacteristicsOf = core.CharacteristicsOf
	// PSQLSystemActions returns Table 1's system-action column.
	PSQLSystemActions = core.PSQLSystemActions
	// PolicyConsistent implements §2.1's lawfulness predicate.
	PolicyConsistent = core.PolicyConsistent
	// AuditUnit checks H(X) for policy consistency.
	AuditUnit = core.AuditUnit
	// AuditAll checks the whole history.
	AuditAll = core.AuditAll
	// DefaultGDPRInvariants returns G6, G17 and the Figure-1 set.
	DefaultGDPRInvariants = core.DefaultGDPRInvariants
	// NewInvariantSet builds an invariant set.
	NewInvariantSet = core.NewInvariantSet
	// NewLawfulProcessingInvariant is G6.
	NewLawfulProcessingInvariant = core.NewLawfulProcessingInvariant
	// NewErasureDeadlineInvariant is G17.
	NewErasureDeadlineInvariant = core.NewErasureDeadlineInvariant
)

// ---- Compliance profiles and the deployment (§4.2) ----

type (
	// Profile is a grounded interpretation of GDPR compliance.
	Profile = compliance.Profile
	// ShardedDB is a deployment of a profile over the storage stack: N
	// independent shards (one suffices) routed by a hash of the data
	// subject, with cross-shard operations fanned out over a bounded
	// worker pool.
	ShardedDB = compliance.ShardedDB
	// DB is one shard of a deployment, reached through ShardedDB.Shard
	// for its engine, policy engine, logger and model mirror.
	DB = compliance.DB
	// SweepReport is the outcome of a retention sweep.
	SweepReport = compliance.SweepReport
	// ComplianceReport is the outcome of an invariant audit.
	ComplianceReport = compliance.Report
	// SpaceReport is a Table-2 row.
	SpaceReport = compliance.SpaceReport
	// Metadata is the GDPR metadata block of a record.
	Metadata = compliance.Metadata
	// Record is a GDPRBench record.
	Record = gdprbench.Record
	// RecoveryStats describes a crash-recovery pass (records replayed,
	// checkpoint rows loaded, tail bytes discarded, wall time).
	RecoveryStats = compliance.RecoveryStats
)

// Deployment entities and purposes.
const (
	EntityController = compliance.EntityController
	EntityProcessor  = compliance.EntityProcessor
	EntitySubjectSvc = compliance.EntitySubjectSvc
	EntitySystem     = compliance.EntitySystem

	PurposeService       = compliance.PurposeService
	PurposeProcessing    = compliance.PurposeProcessing
	PurposeSubjectAccess = compliance.PurposeSubjectAccess
)

// Storage backends for Profile.Backend: the heap engine grounds
// deletion in DELETE+VACUUM mechanics; the LSM engine grounds it in
// tombstones with erase-aware compaction (§3.1's contrast, pluggable);
// the mmap engine grounds durability in the region itself — slotted
// pages plus an embedded redo log — so erasure is an in-place page
// scrub and checkpoints are page-table snapshots.
const (
	BackendHeap = compliance.BackendHeap
	BackendLSM  = compliance.BackendLSM
	BackendMmap = compliance.BackendMmap
)

// ---- Pluggable storage engines ----

type (
	// StorageEngine is the storage contract a compliance deployment's
	// data table runs on (heap or LSM).
	StorageEngine = storage.Engine
	// StorageStats is the backend-neutral work-counter snapshot.
	StorageStats = storage.Stats
	// StorageSpaceStats is the backend-neutral footprint report.
	StorageSpaceStats = storage.SpaceStats
	// Vacuumer is the heap's reclamation capability.
	Vacuumer = storage.Vacuumer
	// Purger is the LSM's erase-aware-compaction capability.
	Purger = storage.Purger
)

var (
	// NewHeapEngine builds a heap-backed storage engine.
	NewHeapEngine = storage.NewHeap
	// NewLSMEngine builds an LSM-backed storage engine.
	NewLSMEngine = storage.NewLSM
	// ErrKeyExists / ErrKeyNotFound are the engine-level sentinels.
	ErrKeyExists   = storage.ErrKeyExists
	ErrKeyNotFound = storage.ErrKeyNotFound
)

// OpenProfile builds a one-shard deployment of a profile.
func OpenProfile(p Profile) (*ShardedDB, error) { return compliance.OpenSharded(p, 1) }

// Profile constructors and the deployment openers.
var (
	// PBase is the least restrictive grounding (RBAC, CSV logs,
	// AES-256, DELETE+VACUUM).
	PBase = compliance.PBase
	// PGBench stores policies in a separate joined table, logs all
	// queries, encrypts at block level and deletes without vacuum.
	PGBench = compliance.PGBench
	// PSYS is the most restrictive grounding (Sieve-style FGAC,
	// AES-128, encrypted logs with policy snapshots, DELETE+VACUUM FULL
	// plus log erasure).
	PSYS = compliance.PSYS
	// Profiles returns the three paper profiles.
	Profiles = compliance.Profiles
	// OpenSharded builds a subject-sharded deployment of a profile.
	OpenSharded = compliance.OpenSharded
	// OpenShardedWorkers is OpenSharded with an explicit fan-out width.
	OpenShardedWorkers = compliance.OpenShardedWorkers
	// SubjectShard is the placement function of the sharded engine: the
	// home shard of a data subject.
	SubjectShard = compliance.SubjectShard
	// RecoverSharded rebuilds a deployment from its per-shard WAL
	// segment images (crash recovery), replaying the shards in parallel.
	RecoverSharded = compliance.RecoverSharded
	// RecoverShardedWithRegions is RecoverSharded for mmap-backed
	// deployments: per-shard WAL images plus per-shard region snapshots.
	RecoverShardedWithRegions = compliance.RecoverShardedWithRegions
	// ErrNotFound / ErrDenied / ErrExists are the DB's operation errors.
	ErrNotFound = compliance.ErrNotFound
	ErrDenied   = compliance.ErrDenied
	ErrExists   = compliance.ErrExists
)

// ---- Erasure engine (§3.1 grounding, Figure 3, Table 1) ----

type (
	// ErasureEngine executes grounded erasures.
	ErasureEngine = erasure.Engine
	// ShardedErasureEngine partitions erasure across per-shard engines.
	ShardedErasureEngine = erasure.ShardedEngine
	// Eraser is the erase-executing interface shared by both engines.
	Eraser = erasure.Eraser
	// ErasureTarget bundles the stores an erasure touches.
	ErasureTarget = erasure.Target
	// ErasureReport describes an executed erasure.
	ErasureReport = erasure.Report
	// ErasureScheduler drives Figure-3 timelines.
	ErasureScheduler = erasure.Scheduler
	// Table1Row is a measured Table-1 row.
	Table1Row = erasure.Table1Row
)

var (
	// NewErasureEngine validates a target and returns an engine.
	NewErasureEngine = erasure.NewEngine
	// NewShardedErasureEngine builds an engine over per-shard engines.
	NewShardedErasureEngine = erasure.NewShardedEngine
	// NewErasureScheduler binds a scheduler to an engine.
	NewErasureScheduler = erasure.NewScheduler
	// NewShardedErasureScheduler binds a scheduler to a sharded engine;
	// its Advance escalates per-shard batches in parallel.
	NewShardedErasureScheduler = erasure.NewShardedScheduler
)

// ---- Experiments (§4; Figures 3, 4(a)-(c); Tables 1-2) ----

type (
	// Scale sizes an experiment run and names the parameter preset the
	// registry's experiments resolve.
	Scale = benchx.Scale
	// Figure is a rendered experiment result.
	Figure = benchx.Figure
	// RunResult is one workload execution result.
	RunResult = benchx.RunResult
	// EraseStrategy is a Figure-4(a) storage-level strategy.
	EraseStrategy = benchx.EraseStrategy
	// GDPRWorkload names a GDPRBench workload.
	GDPRWorkload = gdprbench.WorkloadName
	// YCSBWorkload names a YCSB workload.
	YCSBWorkload = ycsb.WorkloadName
	// Experiment is one entry of the experiment registry: its name and
	// description, how to run it at a Scale, and the one Check that
	// holds every acceptance gate on its report.
	Experiment = benchx.Experiment
	// BenchReport is the one BENCH_*.json envelope (benchmark, schema,
	// env, results) every experiment writes and reads.
	BenchReport = benchx.Report
)

// Workload names.
const (
	WCon  = gdprbench.Controller
	WPro  = gdprbench.Processor
	WCus  = gdprbench.Customer
	YCSBA = ycsb.WorkloadA
	YCSBB = ycsb.WorkloadB
	YCSBC = ycsb.WorkloadC
)

// Experiment entry points.
var (
	// Experiments returns the registry in run order.
	Experiments = benchx.Experiments
	// LookupExperiment finds a registry entry by name.
	LookupExperiment = benchx.Lookup
	// WriteBenchReport stamps schema and environment into a report and
	// writes it; ReadBenchReport parses one as a given experiment's and
	// runs that experiment's Check.
	WriteBenchReport = benchx.WriteReport
	ReadBenchReport  = benchx.ReadReport
	// DefaultScale is the quick-run configuration, CIScale the smoke
	// configuration CI runs every experiment at, PaperScale the paper's
	// record/txn counts; BenchScales lists all three.
	DefaultScale = benchx.DefaultScale
	CIScale      = benchx.CIScale
	PaperScale   = benchx.PaperScale
	BenchScales  = benchx.Scales
	// ParseIntList parses a comma-separated sweep of positive integers.
	ParseIntList = benchx.ParseInts
	// Table1 regenerates Table 1 on a live system.
	Table1 = benchx.Table1
	// RenderTable1 renders Table 1.
	RenderTable1 = benchx.RenderTable1
	// Fig3Timeline walks a unit through the Figure-3 timeline.
	Fig3Timeline = benchx.Fig3Timeline
	// Fig4a regenerates Figure 4(a).
	Fig4a = benchx.Fig4a
	// Fig4b regenerates Figure 4(b).
	Fig4b = benchx.Fig4b
	// Fig4c regenerates Figure 4(c).
	Fig4c = benchx.Fig4c
	// Table2 regenerates Table 2.
	Table2 = benchx.Table2
	// RenderFigure renders a figure as a fixed-width table.
	RenderFigure = benchx.Render
	// RenderFigureCSV renders a figure as CSV.
	RenderFigureCSV = benchx.RenderCSV
	// RunGDPRBench runs one profile × GDPRBench workload.
	RunGDPRBench = benchx.RunGDPRBench
	// RunYCSB runs one profile × YCSB workload.
	RunYCSB = benchx.RunYCSB
	// RunEraseStrategy runs one Figure-4(a) strategy.
	RunEraseStrategy = benchx.RunEraseStrategy
	// RunDeleteOnlyWorkload runs the paper's delete-only footnote case.
	RunDeleteOnlyWorkload = benchx.RunDeleteOnlyWorkload
	// EraseStrategies lists the Figure-4(a) strategies.
	EraseStrategies = benchx.EraseStrategies
	// RunShardedGDPRBench runs a workload against the sharded engine
	// with concurrent clients.
	RunShardedGDPRBench = benchx.RunShardedGDPRBench
	// RunShardedErasureBatch measures a batched right-to-be-forgotten
	// stream on the sharded engine.
	RunShardedErasureBatch = benchx.RunShardedErasureBatch
	// RunShardedAudit measures a global parallel compliance audit.
	RunShardedAudit = benchx.RunShardedAudit
	// ShardScaling sweeps shard counts (the scaling experiment).
	ShardScaling = benchx.ShardScaling
	// DefaultShardSweep is the 1/4/16 shard sweep.
	DefaultShardSweep = benchx.DefaultShardSweep
)

// Figure-4(a) strategies.
const (
	StratDelete     = benchx.StratDelete
	StratVacuum     = benchx.StratVacuum
	StratVacuumFull = benchx.StratVacuumFull
	StratTombstone  = benchx.StratTombstone
)

// ---- Single measurements of the repo's own experiments ----
//
// The registry (Experiments) runs each of these as a sweep, gates it
// and writes its BENCH_*.json; the entry points below run one point.

type (
	// LoadgenConfig sizes one closed-loop loadgen run.
	LoadgenConfig = loadgen.Config
	// LoadgenResult is one BENCH_loadgen.json row.
	LoadgenResult = loadgen.Result
	// LatencyHistogram is the driver's lock-free HDR-style histogram.
	LatencyHistogram = loadgen.Histogram
	// WALStats describes a log's commit work (appends vs syncs; fewer
	// syncs than appends means group commit amortized durability).
	WALStats = wal.Stats
	// RecoveryResult is one BENCH_recovery.json row: recovery time and
	// replay work for one crashed-and-rebuilt deployment.
	RecoveryResult = benchx.RecoveryResult
	// BackendResult is one (backend, txns) point of BENCH_backend.json.
	BackendResult = benchx.BackendResult
	// BackendEraseCheck is the per-backend erase-physicality evidence.
	BackendEraseCheck = benchx.BackendEraseCheck
	// ReadPathConfig sizes one read-path measurement.
	ReadPathConfig = benchx.ReadPathConfig
	// ReadPathResult is one BENCH_readpath.json row.
	ReadPathResult = benchx.ReadPathResult
	// IngestResult is one BENCH_ingest.json row: throughput and
	// checkpoint bytes for one (backend, batch size, checkpoint mode).
	IngestResult = benchx.IngestResult
	// DurableHeapResult is one BENCH_durableheap.json row: ingest,
	// forced-checkpoint and recovery wall time for one backend.
	DurableHeapResult = benchx.DurableHeapResult
	// NetworkConfig sizes one end-to-end network measurement.
	NetworkConfig = loadgen.NetworkConfig
	// NetworkResult is one BENCH_network.json row.
	NetworkResult = loadgen.NetworkResult
	// ReshardConfig sizes one resharding measurement.
	ReshardConfig = benchx.ReshardConfig
	// ReshardResult is one BENCH_reshard.json row.
	ReshardResult = benchx.ReshardResult
	// ReplicationConfig sizes one replication measurement.
	ReplicationConfig = benchx.ReplicationConfig
	// ReplicationResult is one BENCH_replication.json row.
	ReplicationResult = benchx.ReplicationResult
)

var (
	// RunLoadgen executes one closed-loop measurement: P concurrent
	// clients replaying deterministic slices of a GDPRBench workload
	// against a subject-sharded deployment.
	RunLoadgen = loadgen.Run
	// ParseWorkload maps CLI spellings (wcon/wpro/wcus) to workloads.
	ParseWorkload = gdprbench.ParseWorkload
	// RunRecovery runs one crash-and-rebuild measurement.
	RunRecovery = benchx.RunRecovery
	// RunBackendEraseCheck runs one backend's erase-physicality check.
	RunBackendEraseCheck = benchx.RunBackendEraseCheck
	// Table1On measures Table 1 on a specific storage backend.
	Table1On = benchx.Table1On
	// RunReadPath executes one read-path measurement: N closed-loop
	// readers replaying a deterministic pure-read stream against the
	// shared-lock read path (or the one-big-mutex baseline).
	RunReadPath = benchx.RunReadPath
	// RunIngest ingests records through IngestBatch at one batch size.
	RunIngest = benchx.RunIngest
	// RunDurableHeap runs one backend's ingest / checkpoint / recovery
	// measurement.
	RunDurableHeap = benchx.RunDurableHeap
	// RunNetwork executes one closed-loop network soak: a fleet of wire
	// connections replaying a GDPRBench workload through a gateway.
	RunNetwork = loadgen.RunNetwork
	// NetworkSweep runs the soak at each connection count.
	NetworkSweep = loadgen.NetworkSweep
	// RunReshard executes one resharding measurement: a Zipfian
	// hot-subject workload pinned to one shard, measured before and
	// after a live rebalancer-driven split.
	RunReshard = benchx.RunReshard
	// RunReplication executes one replication measurement: async-write
	// lag vs synchronous revocation-barrier latency, with post-return
	// visibility probes on every replica.
	RunReplication = benchx.RunReplication
)

// ---- Read path and rebalancing building blocks ----

type (
	// PolicyStats snapshots a policy engine's adjudication and
	// decision-cache work counters.
	PolicyStats = policy.Stats
	// PolicyDecision is one adjudication outcome, with its validity
	// bound and cache provenance.
	PolicyDecision = policy.Decision
	// ShardRebalancer observes per-shard load and proposes live shard
	// splits and merges.
	ShardRebalancer = compliance.Rebalancer
	// ShardRebalancePlan is a rebalancing proposal.
	ShardRebalancePlan = compliance.Plan
)

var (
	// NewCachedPolicyEngine wraps a policy engine with the
	// epoch-invalidated decision cache (profiles do this by default;
	// see Profile.NoDecisionCache).
	NewCachedPolicyEngine = policy.NewCached
	// NewAsyncAuditLogger wraps an audit logger with the bounded async
	// sink (profiles do this by default; see Profile.SyncAudit).
	NewAsyncAuditLogger = audit.NewAsync
	// NewShardRebalancer builds a rebalancer over a sharded deployment.
	NewShardRebalancer = compliance.NewRebalancer
)

// ---- Transport-neutral Client API and the wire serving stack ----

type (
	// Client is the transport-neutral operation surface of a Data-CASE
	// deployment: every compliance operation as an explicit
	// request/response pair under a context. A *LocalClient adapts an
	// in-process ShardedDB; a *RemoteClient speaks the wire protocol to
	// a datacase-server or datacase-gateway. Code written against
	// Client cannot tell the difference — the sentinels (ErrDenied,
	// ErrNotFound, ErrExists) survive the wire.
	Client = api.Client
	// LocalClient adapts a ShardedDB to the Client interface.
	LocalClient = api.Local
	// RemoteClient is the wire-protocol Client implementation.
	RemoteClient = wire.RemoteClient
	// Server hosts a ShardedDB behind the wire protocol.
	Server = wire.Server
	// Gateway routes wire requests to a fleet of servers by data
	// subject, with an epoch-versioned topology.
	Gateway = wire.Gateway
	// Router is the gateway's subject-sticky routing state.
	Router = wire.Router

	// Request/response pairs of the Client surface.
	CreateRequest         = api.CreateRequest
	CreateResponse        = api.CreateResponse
	ReadDataRequest       = api.ReadDataRequest
	ReadDataResponse      = api.ReadDataResponse
	UpdateDataRequest     = api.UpdateDataRequest
	UpdateDataResponse    = api.UpdateDataResponse
	DeleteDataRequest     = api.DeleteDataRequest
	DeleteDataResponse    = api.DeleteDataResponse
	ReadMetaRequest       = api.ReadMetaRequest
	ReadMetaResponse      = api.ReadMetaResponse
	UpdateMetaRequest     = api.UpdateMetaRequest
	UpdateMetaResponse    = api.UpdateMetaResponse
	ReadByMetaRequest     = api.ReadByMetaRequest
	ReadByMetaResponse    = api.ReadByMetaResponse
	SubjectAccessRequest  = api.SubjectAccessRequest
	SubjectAccessResponse = api.SubjectAccessResponse
	EraseSubjectRequest   = api.EraseSubjectRequest
	EraseSubjectResponse  = api.EraseSubjectResponse
	RevokeRequest         = api.RevokeRequest
	RevokeResponse        = api.RevokeResponse
	AuditRequest          = api.AuditRequest
	AuditResponse         = api.AuditResponse
)

var (
	// NewLocalClient adapts an in-process sharded deployment to the
	// Client interface.
	NewLocalClient = api.NewLocal
	// Dial connects a RemoteClient to a server or gateway address.
	Dial = wire.Dial
	// NewServer wraps a Client backend in a wire server.
	NewServer = wire.NewServer
	// NewGateway builds a subject-routing gateway over server addresses
	// at a topology epoch.
	NewGateway = wire.NewGateway
	// ErrUnavailable is returned for requests refused by a draining
	// server.
	ErrUnavailable = wire.ErrUnavailable
)

// ---- WAL-shipping replication (repl) ----

type (
	// ReplicationPrimary streams committed WAL batches to replicas and
	// turns RevokeConsent/EraseSubject into synchronous barriers: the
	// primary call does not return until every live replica acked (or
	// was fenced out).
	ReplicationPrimary = repl.Primary
	// ReplicationPrimaryConfig tunes the primary's barrier timeout,
	// batch sizing and poll interval.
	ReplicationPrimaryConfig = repl.PrimaryConfig
	// ReplicationReplica is a read replica: bootstrapped from the
	// primary's segment snapshots, kept current by per-shard pulls,
	// serving reads locally through a read-only Client.
	ReplicationReplica = repl.Replica
	// ReplicationReplicaConfig tunes a replica's identity and pacing.
	ReplicationReplicaConfig = repl.ReplicaConfig
	// ReplicationApplyStats reports one replicated-batch application.
	ReplicationApplyStats = compliance.ReplApplyStats
)

var (
	// NewReplicationPrimary wraps a sharded deployment with the
	// replication protocol (call Listen to serve replicas).
	NewReplicationPrimary = repl.NewPrimary
	// StartReplica bootstraps a read replica of the primary at an
	// address and starts its pull loops.
	StartReplica = repl.StartReplica
	// MostCaughtUp picks the failover candidate: the replica with the
	// highest applied position.
	MostCaughtUp = repl.MostCaughtUp
	// ReadOnlyClient wraps a Client so mutations fail with
	// ErrReadOnlyReplica while reads pass through.
	ReadOnlyClient = repl.ReadOnly
	// ErrReadOnlyReplica is returned for any mutation sent to a read
	// replica; it survives the wire.
	ErrReadOnlyReplica = api.ErrReadOnlyReplica
)
