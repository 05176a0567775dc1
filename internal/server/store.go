package server

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"genclus/internal/deltalog"
	"genclus/internal/hin"
)

// newID returns a prefixed 16-hex-char random identifier.
func newID(prefix string) string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return prefix + "_" + hex.EncodeToString(buf[:])
}

// networkEntry is one uploaded network plus the bookkeeping eviction and
// mutation need. net is an immutable view generation: mutations never edit
// it, they build a successor and swap the pointer under the store mutex
// (publishNetwork), so concurrent fits, assigns and drift scoring keep a
// consistent snapshot. mutMu serializes whole mutations per network
// (decode→apply→append→publish) so generations and log sequence numbers
// advance together; it is taken before the store mutex, never after. dlog
// and sup appear on the first mutation and are guarded by the store mutex
// (the retire path may read them lock-free only after the entry has been
// unlinked under that same mutex).
type networkEntry struct {
	net      *hin.Network
	lastUsed time.Time

	mutMu      sync.Mutex    // serializes mutations to this network
	generation int           // mutations applied since upload (or recovery replay)
	dlog       *deltalog.Log // nil until first mutation
	sup        *supervisor   // nil until first mutation (or when disabled)
}

// store holds uploaded networks, jobs and registered models in memory.
// Finished jobs and idle networks are evicted once they outlive the TTL
// (sweep); networks stay pinned while a queued or running job references
// them. Models are never TTL-evicted — only DELETE and the MaxModels
// overflow cap remove them. Evicted job ids leave tombstones behind
// (bounded to a few TTLs) so the API can tell "evicted" from "never
// existed".
type store struct {
	ttl time.Duration
	now func() time.Time

	mu          sync.Mutex
	networks    map[string]*networkEntry
	jobs        map[string]*job
	models      map[string]*modelEntry
	evictedJobs map[string]time.Time
	supsClosed  bool // Close ran: no new supervisors may start
}

func newStore(ttl time.Duration, now func() time.Time) *store {
	return &store{
		ttl:         ttl,
		now:         now,
		networks:    make(map[string]*networkEntry),
		jobs:        make(map[string]*job),
		models:      make(map[string]*modelEntry),
		evictedJobs: make(map[string]time.Time),
	}
}

// addNetwork registers an uploaded network and returns its ID.
func (st *store) addNetwork(net *hin.Network) string {
	id := newID("net")
	st.mu.Lock()
	st.networks[id] = &networkEntry{net: net, lastUsed: st.now()}
	st.mu.Unlock()
	return id
}

// networkEntry fetches a network's entry (for mutation) and refreshes its
// eviction clock. The returned entry may be evicted concurrently; writers
// must re-verify membership via publishNetwork / attachLog.
func (st *store) networkEntry(id string) (*networkEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.networks[id]
	if !ok {
		return nil, false
	}
	e.lastUsed = st.now()
	return e, true
}

// networkForJob fetches a network's view and generation in one consistent
// read for job submission, refreshing the eviction clock.
func (st *store) networkForJob(id string) (*hin.Network, int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.networks[id]
	if !ok {
		return nil, 0, false
	}
	e.lastUsed = st.now()
	return e.net, e.generation, true
}

// networkState reads a network's current view and generation WITHOUT
// refreshing the eviction clock — the supervisor polls on a timer, and a
// poll must not keep an otherwise-idle network alive forever.
func (st *store) networkState(id string) (*hin.Network, int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.networks[id]
	if !ok {
		return nil, 0, false
	}
	return e.net, e.generation, true
}

// publishNetwork swaps in the next view generation. It fails when the
// entry is no longer the one registered under id (TTL eviction raced the
// mutation) so a swept network cannot be resurrected by an in-flight
// request; the unacked mutation's log record, if any, is purged by the
// retire path, which serializes on the entry's mutMu.
func (st *store) publishNetwork(id string, e *networkEntry, net *hin.Network) (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.networks[id] != e {
		return 0, false
	}
	e.net = net
	e.generation++
	e.lastUsed = st.now()
	return e.generation, true
}

// attachLog installs a network's delta log on first mutation, failing if
// the entry was evicted meanwhile (same membership discipline as
// publishNetwork, and it runs before the first append so eviction cannot
// orphan a record here).
func (st *store) attachLog(id string, e *networkEntry, dl *deltalog.Log) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.networks[id] != e {
		return false
	}
	e.dlog = dl
	return true
}

// restoreNetwork re-registers a network recovered from its persisted base
// plus delta-log replay, under its original id and replayed generation.
func (st *store) restoreNetwork(id string, net *hin.Network, generation int, dl *deltalog.Log) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.networks[id] = &networkEntry{
		net:        net,
		lastUsed:   st.now(),
		generation: generation,
		dlog:       dl,
	}
}

// mutatedNetworks snapshots the entries that have a delta log — the set
// whose supervisors are (re)started after recovery.
func (st *store) mutatedNetworks() map[string]*networkEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]*networkEntry)
	for id, e := range st.networks {
		if e.dlog != nil {
			out[id] = e
		}
	}
	return out
}

// closeSupervisors marks the store closed for supervisor registration and
// returns the live supervisors so the caller can halt them. After this, no
// mutation can start a new one.
func (st *store) closeSupervisors() []*supervisor {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.supsClosed = true
	var out []*supervisor
	for _, e := range st.networks {
		if e.sup != nil {
			out = append(out, e.sup)
			e.sup = nil
		}
	}
	return out
}

// numSupervisors counts live supervisors for /healthz and /metrics.
func (st *store) numSupervisors() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, e := range st.networks {
		if e.sup != nil {
			n++
		}
	}
	return n
}

// deltaDepth sums delta-log depth across networks for /healthz and
// /metrics. Logs are collected under the store mutex and measured outside
// it (Log has its own lock).
func (st *store) deltaDepth() int {
	st.mu.Lock()
	logs := make([]*deltalog.Log, 0, len(st.networks))
	for _, e := range st.networks {
		if e.dlog != nil {
			logs = append(logs, e.dlog)
		}
	}
	st.mu.Unlock()
	depth := 0
	for _, l := range logs {
		depth += l.Depth()
	}
	return depth
}

// latestModelForNetwork returns the newest registered model fitted on the
// given network (ties broken by id, mirroring listModels), or nil — the
// supervisor's warm-start base.
func (st *store) latestModelForNetwork(networkID string) *modelEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	var best *modelEntry
	for _, e := range st.models {
		if e.networkID != networkID {
			continue
		}
		if best == nil || e.created.After(best.created) ||
			(e.created.Equal(best.created) && e.id > best.id) {
			best = e
		}
	}
	return best
}

func (st *store) addJob(j *job) {
	st.mu.Lock()
	st.jobs[j.id] = j
	st.mu.Unlock()
}

func (st *store) job(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// sweep evicts finished jobs whose results outlived the TTL and networks
// idle past the TTL that no pending job still needs, leaving a tombstone
// per evicted job. It returns the evicted job ids so the caller can drop
// their persisted records, and the evicted network entries so the caller
// can retire them outside the lock — stop the supervisor, purge the delta
// log, drop the persisted base. Tombstones themselves expire after four
// TTLs — long enough that a client polling on the job's own timescale sees
// the typed eviction answer, bounded so the set cannot grow with service
// age.
func (st *store) sweep() (evictedJobs []string, evictedNets map[string]*networkEntry) {
	now := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	pinned := make(map[string]bool)
	for id, j := range st.jobs {
		snap := j.snapshot()
		if snap.state.Terminal() {
			if now.Sub(snap.finished) > st.ttl {
				delete(st.jobs, id)
				st.evictedJobs[id] = now
				evictedJobs = append(evictedJobs, id)
			}
			continue
		}
		pinned[j.networkID] = true
	}
	for id, e := range st.networks {
		if !pinned[id] && now.Sub(e.lastUsed) > st.ttl {
			delete(st.networks, id)
			if evictedNets == nil {
				evictedNets = make(map[string]*networkEntry)
			}
			evictedNets[id] = e
		}
	}
	for id, at := range st.evictedJobs {
		if now.Sub(at) > 4*st.ttl {
			delete(st.evictedJobs, id)
		}
	}
	return evictedJobs, evictedNets
}

// jobEvicted reports whether a job id was TTL-evicted recently enough that
// its tombstone survives.
func (st *store) jobEvicted(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.evictedJobs[id]
	return ok
}

// addModel registers a model. When maxModels > 0 and the registry
// overflows, the oldest entries are evicted and returned so the caller
// can drop their snapshots from disk and their cached inference engines.
func (st *store) addModel(e *modelEntry, maxModels int) []*modelEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.models[e.id] = e
	var evicted []*modelEntry
	for maxModels > 0 && len(st.models) > maxModels {
		oldestID := ""
		var oldest time.Time
		for id, m := range st.models {
			if oldestID == "" || m.created.Before(oldest) || (m.created.Equal(oldest) && id < oldestID) {
				oldestID, oldest = id, m.created
			}
		}
		evicted = append(evicted, st.models[oldestID])
		delete(st.models, oldestID)
	}
	return evicted
}

// digestInUse reports whether any live registry entry serves the given
// snapshot digest (the engine cache only drops a digest once no model
// needs it).
func (st *store) digestInUse(digest string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.models {
		if e.digest == digest {
			return true
		}
	}
	return false
}

// model fetches a registered model.
func (st *store) model(id string) (*modelEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.models[id]
	return e, ok
}

// deleteModel removes a model from the registry, returning the removed
// entry and whether it existed.
func (st *store) deleteModel(id string) (*modelEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.models[id]
	delete(st.models, id)
	return e, ok
}

// listModels returns every registered model, newest first (ties broken by
// id so the order is deterministic).
func (st *store) listModels() []*modelEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*modelEntry, 0, len(st.models))
	for _, e := range st.models {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].created.Equal(out[j].created) {
			return out[i].created.After(out[j].created)
		}
		return out[i].id < out[j].id
	})
	return out
}

// modelDigests snapshots the id → snapshot-digest map — the replica sync
// loop's view of the local registry.
func (st *store) modelDigests() map[string]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]string, len(st.models))
	for id, e := range st.models {
		out[id] = e.digest
	}
	return out
}

// numModels counts registered models for /healthz.
func (st *store) numModels() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.models)
}

// jobCounts tallies jobs by state for /healthz.
func (st *store) jobCounts() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]int)
	for _, j := range st.jobs {
		out[string(j.snapshot().state)]++
	}
	return out
}

func (st *store) numNetworks() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.networks)
}
