// Warm-state snapshot plumbing for the batch layer: a small store interface
// the runner publishes/fetches snapshots through, a directory-backed
// implementation, and the content-addressed key shared with the dispatch
// store backends.
package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"clgp/internal/core"
	"clgp/internal/workload"
)

// SnapshotStore publishes and fetches warm-state snapshot artifacts by key.
// dispatch.Store (both the directory and object backends) satisfies it, as
// does DirSnapshots for store-less local runs.
type SnapshotStore interface {
	// FetchSnapshot returns the snapshot stored under key, or an error
	// wrapping os.ErrNotExist when the store has none.
	FetchSnapshot(key string) ([]byte, error)
	// PushSnapshot stores data under key. Publishing the same key twice is
	// allowed (snapshot bytes are deterministic, so concurrent recorders
	// racing on a key write identical artifacts).
	PushSnapshot(key string, data []byte) error
}

// SnapshotKey is the content address of a warm-state snapshot: workload
// fingerprint × warm-configuration key × warm-up boundary. Grid points that
// share all three share the artifact and pay warm-up once.
func SnapshotKey(fingerprint, warmKey uint64, warmup int) string {
	return fmt.Sprintf("%016x-%016x-c%d.clgs", fingerprint, warmKey, warmup)
}

// DirSnapshots stores snapshots as files in a directory, written atomically
// (temp + rename) so concurrent recorders never expose a torn artifact.
type DirSnapshots struct {
	// Dir is the snapshot directory; it is created on first push.
	Dir string
}

// FetchSnapshot implements SnapshotStore.
func (s DirSnapshots) FetchSnapshot(key string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.Dir, key))
}

// PushSnapshot implements SnapshotStore.
func (s DirSnapshots) PushSnapshot(key string, data []byte) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.Dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.Dir, key))
}

// warmTarget is the committed-instruction goal of the job's engine.
func (j Job) warmTarget(trLen int) uint64 {
	target := uint64(trLen)
	if j.Config.MaxInsts > 0 && uint64(j.Config.MaxInsts) < target {
		target = uint64(j.Config.MaxInsts)
	}
	return target
}

// WarmStart applies the job's warm-up policy to a freshly built engine: on a
// snapshot-store hit the engine restores and skips warm-up entirely; on a
// miss it simulates through warm-up, publishes the snapshot for the rest of
// the grid, and continues — which is exactly a straight-through run plus one
// serialisation, so the recording shard's results stay bit-identical too.
// It returns the engine to continue with (a fresh replacement when a damaged
// cached artifact had to be discarded). The runner calls it per job; it is
// exported for drivers that hold their own engine (clgpsim run).
func (j Job) WarmStart(eng *core.Engine, src core.TraceSource) (*core.Engine, error) {
	warm := uint64(j.Warmup)
	if warm >= j.warmTarget(src.Len()) {
		// Warm-up covers the whole run: nothing worth checkpointing.
		return eng, nil
	}
	fp := workload.Fingerprint(j.Workload.Profile, j.Workload.Dict)
	key := SnapshotKey(fp, j.Config.WarmKey(), j.Warmup)
	if data, err := j.Snapshots.FetchSnapshot(key); err == nil {
		if rerr := eng.Restore(data, j.Workload.Name, fp); rerr == nil {
			return eng, nil
		}
		// Damaged or mismatched artifact: discard the partially restored
		// engine and fall back to the cold path. The trace source is
		// untouched — Restore only advances it after full validation — so a
		// replacement engine starts clean.
		eng, err = core.NewEngine(j.Config, j.Workload.Dict, src)
		if err != nil {
			return nil, err
		}
	}
	// Miss (or unreachable store, treated as a miss — the cache is
	// best-effort): pay warm-up once and publish.
	if err := eng.RunUntilCommitted(warm); err != nil {
		return nil, err
	}
	data, err := eng.Snapshot(j.Workload.Name, fp)
	if err != nil {
		return nil, err
	}
	// Publication is best-effort: a full disk or unreachable store costs the
	// grid its warm-up sharing, not the run its results.
	_ = j.Snapshots.PushSnapshot(key, data)
	return eng, nil
}
