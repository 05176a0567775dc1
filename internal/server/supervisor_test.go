package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/snapshot"
)

// TestSupervisorAutoRefitUnderLoad is the continuous-clustering
// integration test: a fitted network is mutated under sustained /assign
// load until the supervisor's pending-depth trigger fires. It pins the
// full contract — zero failed assigns during rollforward, the auto-refit
// recorded at the exact mutated generation, and the published model
// bitwise-identical to a manual warm-start fit of the same generation.
func TestSupervisorAutoRefitUnderLoad(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:                  2,
		SupervisorMaxPending:     3,
		SupervisorDriftThreshold: -1, // isolate the pending-depth trigger
		SupervisorInterval:       10 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 20, 1)
	netID := uploadNetwork(t, ts, network)

	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	baseModelID := waitForState(t, ts, jobID, client.StateDone).ModelID
	if baseModelID == "" {
		t.Fatal("finished fit published no model")
	}
	res := fetchResult(t, ts, jobID)
	target := res.Objects[0].ID

	// Sustained assign load against the base model for the whole
	// mutate-and-refit window; every single request must succeed.
	var assigns, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := singleLinkAssign(t, ts, baseModelID, target, fmt.Sprintf("load%d-%d", w, i))
				assigns.Add(1)
				if code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}

	// Three mutations reach SupervisorMaxPending; the supervisor schedules
	// a warm-start refit of generation 3.
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf(`{"objects":[{"id":"new%d","type":"doc","terms":{"text":[{"t":%d,"c":2}]}}],"links":[{"from":"new%d","to":"%s","rel":"cites","w":1}]}`,
			i, i, i, target)
		if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects", doc); code != http.StatusOK {
			t.Fatalf("mutation %d failed: %d", i, code)
		}
	}

	var st client.SupervisorStatus
	waitFor(t, 60*time.Second, func() bool {
		st = supStatus(t, ts, netID)
		return st.RefitsSucceeded == 1
	})
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d assigns failed during rollforward", failures.Load(), assigns.Load())
	}
	if assigns.Load() == 0 {
		t.Fatal("assign load loop never ran")
	}
	if !st.Active || st.RefitsTriggered != 1 || st.RefitsFailed != 0 || st.LastRefitGeneration != 3 || st.LastModelID == "" {
		t.Fatalf("supervisor status after auto-refit: %+v", st)
	}

	autoEntry, ok := s.store.model(st.LastModelID)
	if !ok {
		t.Fatalf("auto-refit model %s not in the registry", st.LastModelID)
	}
	if gen := autoEntry.meta[metaNetworkGeneration]; gen != "3" {
		t.Fatalf("auto-refit model records generation %q, want \"3\"", gen)
	}

	// The rolled-forward model serves assigns immediately.
	if code, body := singleLinkAssign(t, ts, st.LastModelID, target, "rolled"); code != http.StatusOK {
		t.Fatalf("assign against auto-refit model: %d: %s", code, body)
	}

	// Manual warm start from the same base model on the same generation-3
	// view must reproduce the auto-refit model bit for bit (meta differs —
	// job id, timestamps — so compare the meta-free encodings).
	manualJob := submitJob(t, ts, client.JobSpec{NetworkID: netID, WarmStartFromModel: baseModelID})
	manualModelID := waitForState(t, ts, manualJob, client.StateDone).ModelID
	manualEntry, ok := s.store.model(manualModelID)
	if !ok {
		t.Fatal("manual refit model not in the registry")
	}
	autoBytes, err := snapshot.Encode(&snapshot.Snapshot{Model: autoEntry.model})
	if err != nil {
		t.Fatal(err)
	}
	manualBytes, err := snapshot.Encode(&snapshot.Snapshot{Model: manualEntry.model})
	if err != nil {
		t.Fatal(err)
	}
	if string(autoBytes) != string(manualBytes) {
		t.Fatalf("auto-refit model diverges from manual warm start at the same generation: %d vs %d bytes",
			len(autoBytes), len(manualBytes))
	}

	// Health and metrics surfaces agree with the supervisor's own counters.
	h := fetchHealth(t, ts)
	if h.Mutation.RefitsTriggered != 1 || h.Mutation.RefitsSucceeded != 1 || h.Mutation.Supervisors != 1 {
		t.Fatalf("healthz mutation block after auto-refit: %+v", h.Mutation)
	}
}

// TestSupervisorDriftTrigger isolates the drift signal: with the pending
// trigger effectively disabled, adding an object the model has never seen
// (maximal drift 1.0) schedules a refit with reason drift.
func TestSupervisorDriftTrigger(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:                  1,
		SupervisorMaxPending:     1 << 20,
		SupervisorDriftThreshold: 0.5,
		SupervisorInterval:       10 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 10, 1)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	waitForState(t, ts, jobID, client.StateDone)

	// A brand-new object with no links: the drift sample is exactly this
	// object, which the model cannot place — drift 1.0 ≥ 0.5.
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"alien","type":"doc","terms":{"text":[{"t":19,"c":5}]}}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}

	var st client.SupervisorStatus
	waitFor(t, 60*time.Second, func() bool {
		st = supStatus(t, ts, netID)
		return st.RefitsSucceeded == 1
	})
	if st.DriftScore != 1.0 {
		t.Fatalf("drift score %v, want 1.0 for an unknown object", st.DriftScore)
	}
	if h := fetchHealth(t, ts); h.Mutation.DriftScore != 1.0 {
		t.Fatalf("healthz drift_score %v, want 1.0", h.Mutation.DriftScore)
	}
}

// TestSupervisorStopsWithServer pins Close ordering: halting the server
// with a live supervisor (and possibly an in-flight auto-refit) neither
// hangs nor leaks — Close returns with no supervisor running.
func TestSupervisorStopsWithServer(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:              1,
		SupervisorMaxPending: 1,
		SupervisorInterval:   5 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 10, 1)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	waitForState(t, ts, jobID, client.StateDone)
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"x1","type":"doc"}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}
	waitFor(t, 10*time.Second, func() bool { return s.store.numSupervisors() == 1 })

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung with a live supervisor")
	}
	if n := s.store.numSupervisors(); n != 0 {
		t.Fatalf("%d supervisors survived Close", n)
	}
}
