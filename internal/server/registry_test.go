package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testItems(t, size int) []Item {
	out := make([]Item, size)
	for i := range out {
		out[i] = Item(fmt.Sprintf("%d", t*1000+i))
	}
	return out
}

// TestRegistryLazyCreation: getOrCreate builds once per key, including
// under a creation race.
func TestRegistryLazyCreation(t *testing.T) {
	r, err := newRegistry(rtbsConfig(1), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.count(); got != 0 {
		t.Fatalf("fresh registry has %d entries", got)
	}
	const racers = 16
	entries := make([]*entry, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := r.getOrCreate("same-key")
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}()
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if entries[i] != entries[0] {
			t.Fatal("creation race produced distinct entries for one key")
		}
	}
	if got := r.count(); got != 1 {
		t.Fatalf("registry has %d entries after racing on one key, want 1", got)
	}
	if r.lookup("absent") != nil {
		t.Fatal("lookup invented an entry")
	}
}

// TestRegistryStriping: keys spread across shards, and every key routes to
// a stable shard.
func TestRegistryStriping(t *testing.T) {
	r, err := newRegistry(rtbsConfig(1), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := r.getOrCreate(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := r.perShardCounts()
	nonEmpty := 0
	total := 0
	for _, n := range counts {
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != 64 {
		t.Fatalf("per-shard counts sum to %d, want 64", total)
	}
	// 64 FNV-hashed keys over 8 shards leaving shards empty would mean a
	// badly broken hash split.
	if nonEmpty < 4 {
		t.Fatalf("only %d of 8 shards used for 64 keys: %v", nonEmpty, counts)
	}
	if r.shardFor("key-7") != r.shardFor("key-7") {
		t.Fatal("shard routing is not stable")
	}
	if len(r.keys()) != 64 {
		t.Fatalf("keys() returned %d keys", len(r.keys()))
	}
}

// TestRegistryPerKeySeeds: distinct keys get distinct RNG trajectories;
// recreating a key reproduces its trajectory exactly.
func TestRegistryPerKeySeeds(t *testing.T) {
	run := func(key string) []Item {
		r, err := newRegistry(rtbsConfig(9), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := r.getOrCreate(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			e.appendMode(testItems(i, 30), 0, false)
			e.advance()
		}
		return e.sampler.Sample()
	}
	a1, a2, b := run("alpha"), run("alpha"), run("beta")
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same key is not reproducible across registries")
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("distinct keys share an RNG trajectory")
	}
}

// TestCheckpointFileNameRoundTrip: arbitrary keys survive the
// key→filename→key mapping, and foreign files are rejected.
func TestCheckpointFileNameRoundTrip(t *testing.T) {
	keys := []string{"plain", "with/slash", "with.dot", "ünïcode-ключ", "a b c", "..", ""}
	seen := map[string]bool{}
	for _, key := range keys {
		name := checkpointFileName(key)
		if seen[name] {
			t.Fatalf("file name collision for %q", key)
		}
		seen[name] = true
		got, ok := keyFromFileName(name)
		if !ok || got != key {
			t.Fatalf("round trip of %q through %q gave %q, ok=%v", key, name, got, ok)
		}
	}
	for _, foreign := range []string{"README.md", "x.ckpt.json.tmp", "!!bad!!.ckpt.json"} {
		if _, ok := keyFromFileName(foreign); ok {
			t.Fatalf("foreign file %q parsed as a checkpoint", foreign)
		}
	}
}

// TestMaxKeyFitsFilesystemName: the longest accepted key must produce a
// checkpoint file name — including the transient .tmp suffix — within the
// common 255-byte filesystem limit, or checkpoints would silently fail
// for long-keyed tenants.
func TestMaxKeyFitsFilesystemName(t *testing.T) {
	key := strings.Repeat("k", maxKeyBytes)
	// atomicfile appends ".tmp" plus a random decimal suffix (≤ 11
	// digits) to the target name for the transient file.
	name := checkpointFileName(key) + ".tmp12345678901"
	if len(name) > 255 {
		t.Fatalf("checkpoint temp name for a %d-byte key is %d bytes, over the 255-byte limit", maxKeyBytes, len(name))
	}
}

// TestQueuedBatchSurvivesCheckpoint: a checkpoint taken while a closed
// batch is still queued — the engine-mailbox window between closeBatch
// and applyBatch — must persist the boundary, and restore must replay it,
// converging with a run where the apply completed before the checkpoint.
func TestQueuedBatchSurvivesCheckpoint(t *testing.T) {
	mkEntry := func() *entry {
		r, err := newRegistry(rtbsConfig(4), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := r.getOrCreate("k")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := e.appendMode(testItems(1, 30), 0, false); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Interrupted: the boundary is closed but unapplied at checkpoint time.
	ea := mkEntry()
	ea.closeBatch()
	st, wasDirty, err := ea.checkpoint()
	if err != nil || !wasDirty {
		t.Fatalf("checkpoint: dirty=%v err=%v", wasDirty, err)
	}
	if len(st.Queued) != 1 || len(st.Queued[0]) != 30 || len(st.Pending) != 0 || st.Batches != 0 {
		t.Fatalf("checkpoint with in-flight batch: queued=%d pending=%d batches=%d",
			len(st.Queued), len(st.Pending), st.Batches)
	}
	dir := t.TempDir()
	if err := writeCheckpointFile(dir, st); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Sampler: rtbsConfig(4), CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(context.Background())
	restored := srv.reg.lookup("k")
	if restored == nil {
		t.Fatal("stream not restored")
	}
	_, _, batches := restored.counters()
	if batches != 1 {
		t.Fatalf("restored batches = %d, want 1 (queued boundary replayed)", batches)
	}

	// Reference: the apply completed normally.
	eb := mkEntry()
	eb.advance()

	got := restored.sampler.Sample()
	want := eb.sampler.Sample()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed restore diverges from applied run\n got: %v\nwant: %v", got, want)
	}
}

// TestEntryAdvanceEmptyBatch: closing an empty batch still advances the
// sampler clock — the decay semantics the wall-clock ticker relies on.
func TestEntryAdvanceEmptyBatch(t *testing.T) {
	r, err := newRegistry(rtbsConfig(1), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.getOrCreate("k")
	if err != nil {
		t.Fatal(err)
	}
	e.appendMode(testItems(1, 10), 0, false)
	e.advance()
	if n, batches, _ := e.advance(); n != 0 || batches != 2 {
		t.Fatalf("empty advance: n=%d batches=%d, want 0, 2", n, batches)
	}
	st, wasDirty, err := e.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !wasDirty {
		t.Fatal("entry not dirty after advances")
	}
	if _, again, err := e.checkpoint(); err != nil || again {
		t.Fatalf("clean entry reported dirty=%v err=%v, want false, nil", again, err)
	}
	var snapState struct {
		Now float64 `json:"Now"`
	}
	if err := json.Unmarshal(st.Snapshot.State, &snapState); err != nil {
		t.Fatal(err)
	}
	if snapState.Now != 2 {
		t.Fatalf("sampler clock %v after two advances, want 2", snapState.Now)
	}
}
