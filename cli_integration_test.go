package genclus_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline builds the three command-line tools and runs the full
// workflow: generate a dataset, cluster it, and sanity-check the result
// JSON. Skipped when the Go toolchain cannot build (e.g. vendored test
// environments without a compiler).
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	datagenBin := build("datagen", "./cmd/datagen")
	genclusBin := build("genclus", "./cmd/genclus")
	experimentsBin := build("experiments", "./cmd/experiments")

	netPath := filepath.Join(dir, "net.json")
	labelsPath := filepath.Join(dir, "labels.json")
	run := func(bin string, args ...string) []byte {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
		}
		return out
	}

	// 1. Generate a small weather dataset.
	run(datagenBin, "-kind", "weather", "-numT", "60", "-numP", "30", "-nobs", "3",
		"-out", netPath, "-labels", labelsPath)
	if _, err := os.Stat(netPath); err != nil {
		t.Fatal("datagen produced no network file")
	}
	var labelDoc struct {
		K      int            `json:"k"`
		Labels map[string]int `json:"labels"`
	}
	labelData, err := os.ReadFile(labelsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(labelData, &labelDoc); err != nil {
		t.Fatal(err)
	}
	if labelDoc.K != 4 || len(labelDoc.Labels) != 90 {
		t.Fatalf("labels doc wrong: K=%d n=%d", labelDoc.K, len(labelDoc.Labels))
	}

	// 2. Cluster it.
	resultPath := filepath.Join(dir, "result.json")
	run(genclusBin, "-in", netPath, "-k", "4", "-outer", "3", "-em", "4",
		"-out", resultPath, "-history")
	var result struct {
		K       int `json:"k"`
		Objects []struct {
			ID      string    `json:"id"`
			Theta   []float64 `json:"theta"`
			Cluster int       `json:"cluster"`
		} `json:"objects"`
		Gamma      map[string]float64 `json:"gamma"`
		Iterations []struct {
			Iter int `json:"iter"`
		} `json:"iterations"`
	}
	resultData, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(resultData, &result); err != nil {
		t.Fatal(err)
	}
	if result.K != 4 || len(result.Objects) != 90 {
		t.Fatalf("result shape wrong: K=%d objects=%d", result.K, len(result.Objects))
	}
	if len(result.Gamma) != 4 {
		t.Fatalf("expected 4 relations, got %v", result.Gamma)
	}
	if len(result.Iterations) != 4 { // iter 0..3
		t.Fatalf("expected 4 history entries, got %d", len(result.Iterations))
	}
	for _, obj := range result.Objects {
		if len(obj.Theta) != 4 || obj.Cluster < 0 || obj.Cluster > 3 {
			t.Fatalf("object %s malformed: %+v", obj.ID, obj)
		}
	}

	// 2b. Persist the fitted model and warm-start a second run from it:
	// the snapshot round-trips through the CLI and the refit does less EM
	// work than the cold fit (the warm-start contract).
	modelPath := filepath.Join(dir, "model.gcsnap")
	refitPath := filepath.Join(dir, "refit.json")
	run(genclusBin, "-in", netPath, "-k", "4", "-outer", "3", "-em", "4",
		"-out", resultPath, "-save-model", modelPath)
	if fi, err := os.Stat(modelPath); err != nil || fi.Size() == 0 {
		t.Fatalf("-save-model produced no snapshot: %v", err)
	}
	run(genclusBin, "-in", netPath, "-from-model", modelPath, "-outer", "3", "-em", "4",
		"-out", refitPath)
	var refit struct {
		K       int `json:"k"`
		Objects []struct {
			ID string `json:"id"`
		} `json:"objects"`
	}
	refitData, err := os.ReadFile(refitPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refitData, &refit); err != nil {
		t.Fatal(err)
	}
	if refit.K != 4 || len(refit.Objects) != 90 {
		t.Fatalf("refit result shape wrong: K=%d objects=%d", refit.K, len(refit.Objects))
	}
	// A -k flag that disagrees with the snapshot must fail.
	if err := exec.Command(genclusBin, "-in", netPath, "-from-model", modelPath, "-k", "7").Run(); err == nil {
		t.Error("genclus with conflicting -k and -from-model should fail")
	}
	// A corrupt snapshot must fail, not panic or fit garbage.
	badModel := filepath.Join(dir, "bad.gcsnap")
	snapData, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	snapData[len(snapData)/2] ^= 0x10
	if err := os.WriteFile(badModel, snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(genclusBin, "-in", netPath, "-from-model", badModel).Run(); err == nil {
		t.Error("genclus with corrupt model snapshot should fail")
	}

	// 2c. Offline scoring: fold new objects into the saved snapshot with
	// -assign — no network, no fit, just the model file and a queries file.
	queriesPath := filepath.Join(dir, "queries.json")
	assignPath := filepath.Join(dir, "assign.json")
	relName := ""
	for name := range result.Gamma {
		relName = name
		break
	}
	queries := map[string]any{
		"top_k": 2,
		"objects": []map[string]any{
			{"id": "newbie", "links": []map[string]any{{"rel": relName, "to": result.Objects[0].ID, "w": 1}}},
			{"id": "empty"},
		},
	}
	queryData, err := json.Marshal(queries)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queriesPath, queryData, 0o644); err != nil {
		t.Fatal(err)
	}
	run(genclusBin, "-from-model", modelPath, "-assign", queriesPath, "-out", assignPath)
	var assigned struct {
		K           int `json:"k"`
		Assignments []struct {
			ID      string    `json:"id"`
			Cluster int       `json:"cluster"`
			Theta   []float64 `json:"theta"`
			Top     []struct {
				Cluster int     `json:"cluster"`
				P       float64 `json:"p"`
			} `json:"top"`
			FoldInIters int `json:"fold_in_iters"`
		} `json:"assignments"`
	}
	assignData, err := os.ReadFile(assignPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(assignData, &assigned); err != nil {
		t.Fatal(err)
	}
	if assigned.K != 4 || len(assigned.Assignments) != 2 {
		t.Fatalf("assign output shape wrong: K=%d n=%d", assigned.K, len(assigned.Assignments))
	}
	newbie, empty := assigned.Assignments[0], assigned.Assignments[1]
	if newbie.ID != "newbie" || len(newbie.Theta) != 4 || len(newbie.Top) != 2 || newbie.FoldInIters < 1 {
		t.Fatalf("newbie assignment malformed: %+v", newbie)
	}
	if newbie.Top[0].Cluster != newbie.Cluster {
		t.Fatalf("newbie top list %+v disagrees with cluster %d", newbie.Top, newbie.Cluster)
	}
	for _, x := range empty.Theta {
		if x != 0.25 {
			t.Fatalf("information-free object posterior %v, want uniform", empty.Theta)
		}
	}
	// -assign without -from-model fails.
	if err := exec.Command(genclusBin, "-assign", queriesPath).Run(); err == nil {
		t.Error("genclus -assign without -from-model should fail")
	}
	// Fit-only flags conflict with -assign instead of being silently
	// dropped (a -save-model here would never be written).
	if err := exec.Command(genclusBin, "-from-model", modelPath, "-assign", queriesPath,
		"-k", "4", "-save-model", filepath.Join(dir, "never.gcsnap")).Run(); err == nil {
		t.Error("genclus -assign with fit-only flags should fail")
	}
	// An unresolvable query fails cleanly, not with a panic.
	badQueries := filepath.Join(dir, "badq.json")
	if err := os.WriteFile(badQueries, []byte(`{"objects":[{"links":[{"rel":"ghost","to":"nope","w":1}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(genclusBin, "-from-model", modelPath, "-assign", badQueries).Run(); err == nil {
		t.Error("genclus -assign with unresolvable query should fail")
	}

	// 3. The experiments tool lists its registry.
	listing := string(run(experimentsBin, "-list"))
	for _, id := range []string{"fig5", "table5", "parallel", "selectk"} {
		if !strings.Contains(listing, id) {
			t.Errorf("experiment listing missing %s", id)
		}
	}

	// 4. Error paths exit non-zero.
	if err := exec.Command(genclusBin, "-in", "/definitely/missing.json", "-k", "4").Run(); err == nil {
		t.Error("genclus with missing input should fail")
	}
	if err := exec.Command(datagenBin, "-kind", "nope", "-out", netPath).Run(); err == nil {
		t.Error("datagen with bogus kind should fail")
	}
	if err := exec.Command(experimentsBin, "-run", "bogus").Run(); err == nil {
		t.Error("experiments with bogus id should fail")
	}
	// bench.Config reads each of these values as its default (full scale,
	// 20 runs, seed 1), so the tool must reject them, not run.
	for _, bad := range [][]string{{"-scale", "0"}, {"-runs", "0"}, {"-seed", "0"}} {
		args := append([]string{"-run", "table4", "-scale", "0.06"}, bad...)
		var exit *exec.ExitError
		if err := exec.Command(experimentsBin, args...).Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %v: %v, want exit status 2", bad, err)
		}
	}
}
