package pdrtree

import (
	"fmt"

	"ucat/internal/pager"
	"ucat/internal/uda"
)

// Snapshot is the tree's persistent metadata; the node pages live in the
// pager.Store. The configuration is part of the snapshot because boundary
// encodings (compression mode, bucket count, bit width) must match between
// writer and reader.
//
// MinMass is a lower bound on the mass of every stored UDA. A snapshot
// written before it existed decodes it as 0, which turns the L1 bound's
// mass term off and so stays sound.
type Snapshot struct {
	Root    uint32
	Size    int
	Config  Config
	MinMass float64
}

// Snapshot captures the tree's metadata for persistence.
func (t *Tree) Snapshot() Snapshot {
	return Snapshot{Root: uint32(t.root), Size: t.size, Config: t.cfg, MinMass: t.minMass}
}

// Restore rebuilds a tree over the given pool from a snapshot.
func Restore(pool *pager.Pool, snap Snapshot) (*Tree, error) {
	cfg, err := snap.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	// A MinMass above a stored UDA's mass would prune subtrees that hold
	// answers, so a value no valid tree can have is rejected, not trusted.
	if !(snap.MinMass >= 0 && snap.MinMass <= 1+uda.Epsilon) {
		return nil, fmt.Errorf("pdrtree: snapshot minimum mass %g outside [0, 1+ε]", snap.MinMass)
	}
	return &Tree{
		pool:    pool,
		cfg:     cfg,
		root:    pager.PageID(snap.Root),
		size:    snap.Size,
		minMass: snap.MinMass,
	}, nil
}
