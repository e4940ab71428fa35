package workload

import (
	"fmt"

	"lfrc/internal/census"
	"lfrc/internal/core"
	"lfrc/internal/dcas"
	"lfrc/internal/mem"
	"lfrc/internal/msqueue"
	"lfrc/internal/snark"
	"lfrc/internal/stackrc"
	"lfrc/internal/valois"
)

// EngineKind selects a DCAS engine for an experiment environment.
type EngineKind int

// Engine kinds.
const (
	EngineLocking EngineKind = iota + 1
	EngineMCAS
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineLocking:
		return "locking"
	case EngineMCAS:
		return "mcas"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Engines lists the engine kinds for ablation sweeps.
var Engines = []EngineKind{EngineLocking, EngineMCAS}

// Env is a fully wired experiment environment: one heap, one engine, one
// RC, and the type registrations every structure needs.
type Env struct {
	Heap   *mem.Heap
	Engine dcas.Engine
	RC     *core.RC

	SnarkTypes  snark.Types
	QueueTypes  msqueue.Types
	StackTypes  stackrc.Types
	ValoisTypes valois.Types

	// CellType is a one-pointer-field holder used by experiments that
	// need a bare shared pointer variable (E1, E6).
	CellType mem.TypeID
}

// NewEnv builds an environment with the given engine and RC options.
func NewEnv(kind EngineKind, rcOpts ...core.Option) *Env {
	h := mem.NewHeap()
	var e dcas.Engine
	switch kind {
	case EngineMCAS:
		e = dcas.NewMCAS(h)
	default:
		e = dcas.NewLocking(h)
	}
	return &Env{
		Heap:        h,
		Engine:      e,
		RC:          core.New(h, e, rcOpts...),
		SnarkTypes:  snark.MustRegisterTypes(h),
		QueueTypes:  msqueue.MustRegisterTypes(h),
		StackTypes:  stackrc.MustRegisterTypes(h),
		ValoisTypes: valois.MustRegisterTypes(h),
		CellType: h.MustRegisterType(mem.TypeDesc{
			Name:      "workload.Cell",
			NumFields: 1,
			PtrFields: []int{0},
		}),
	}
}

// CensusConfig describes a census of this environment's heap whose roots
// are the given structure anchors, each held by one external handle. Take
// it for a quiescent audit (census.Take) or a backup collection
// (census.Collect).
func (e *Env) CensusConfig(anchors ...mem.Ref) census.Config {
	roots := make(map[uint32]census.Root, len(anchors))
	for _, a := range anchors {
		r := roots[uint32(a)]
		r.Ref, r.Name = uint32(a), "anchor"
		r.Count++
		roots[uint32(a)] = r
	}
	return census.Config{Heap: e.Heap, Read: e.RC.SnapshotRead, Decode: e.RC.DecodeLink, Roots: roots}
}

// NewDeque builds an LFRC Snark deque in this environment.
func (e *Env) NewDeque(opts ...snark.Option) (*snark.Deque, error) {
	return snark.New(e.RC, e.SnarkTypes, opts...)
}

// NewQueue builds an LFRC Michael–Scott queue in this environment.
func (e *Env) NewQueue() (*msqueue.Queue, error) {
	return msqueue.New(e.RC, e.QueueTypes)
}

// NewStack builds an LFRC Treiber stack in this environment.
func (e *Env) NewStack() (*stackrc.Stack, error) {
	return stackrc.New(e.RC, e.StackTypes)
}

// NewValoisQueue builds a Valois CAS-only queue in this environment.
func (e *Env) NewValoisQueue() (*valois.Queue, error) {
	return valois.New(e.Heap, e.ValoisTypes)
}
