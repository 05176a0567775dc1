package server

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genclus/client"
	"genclus/internal/deltalog"
	"genclus/internal/infer"
)

// scanSpec feeds each non-blank, non-comment line of docs/openapi.yaml to
// visit with its indentation — a minimal indentation-based reader (no YAML
// dependency) that understands exactly the layout the spec uses.
func scanSpec(t *testing.T, visit func(indent int, trimmed string)) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "docs", "openapi.yaml"))
	if err != nil {
		t.Fatalf("open OpenAPI spec: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		visit(len(line)-len(strings.TrimLeft(line, " ")), trimmed)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan OpenAPI spec: %v", err)
	}
}

// parseSpecPaths returns the set of "METHOD path" pairs declared under the
// top-level paths: section — path keys at two spaces, method keys at four.
func parseSpecPaths(t *testing.T) map[string]bool {
	t.Helper()
	methods := map[string]bool{
		"get": true, "post": true, "put": true, "patch": true,
		"delete": true, "head": true, "options": true,
	}
	declared := make(map[string]bool)
	inPaths := false
	currentPath := ""
	scanSpec(t, func(indent int, trimmed string) {
		switch {
		case indent == 0:
			inPaths = trimmed == "paths:"
			currentPath = ""
		case inPaths && indent == 2 && strings.HasSuffix(trimmed, ":"):
			currentPath = strings.TrimSuffix(trimmed, ":")
		case inPaths && indent == 4 && strings.HasSuffix(trimmed, ":"):
			m := strings.TrimSuffix(trimmed, ":")
			if methods[m] && currentPath != "" {
				declared[strings.ToUpper(m)+" "+currentPath] = true
			}
		}
	})
	if len(declared) == 0 {
		t.Fatal("no operations found under paths: — spec layout changed?")
	}
	return declared
}

// TestOpenAPISpecCoversRoutes pins docs/openapi.yaml to the server's route
// table in both directions: every registered route must be documented, and
// every documented operation must still be registered. Adding an endpoint
// without documenting it — or documenting one that no longer exists —
// fails CI here.
func TestOpenAPISpecCoversRoutes(t *testing.T) {
	declared := parseSpecPaths(t)

	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	registered := make(map[string]bool)
	for _, rt := range srv.Routes() {
		registered[rt.Method+" "+rt.Path] = true
	}

	for key := range registered {
		if !declared[key] {
			t.Errorf("route %q is registered but missing from docs/openapi.yaml", key)
		}
	}
	for key := range declared {
		if !registered[key] {
			t.Errorf("operation %q is documented in docs/openapi.yaml but not registered on the server", key)
		}
	}
}

// parseSchemaProperties returns the property names the named schema under
// components.schemas declares: schema keys at four spaces, "properties:"
// at six, property names at eight.
func parseSchemaProperties(t *testing.T, schema string) map[string]bool {
	t.Helper()
	props := make(map[string]bool)
	inSchema, inProps := false, false
	scanSpec(t, func(indent int, trimmed string) {
		switch {
		case indent <= 4:
			inSchema = indent == 4 && trimmed == schema+":"
			inProps = false
		case inSchema && indent == 6:
			inProps = trimmed == "properties:"
		case inProps && indent == 8 && strings.HasSuffix(trimmed, ":"):
			props[strings.TrimSuffix(trimmed, ":")] = true
		}
	})
	if len(props) == 0 {
		t.Fatalf("no properties found for schema %s — spec layout changed?", schema)
	}
	return props
}

// TestOpenAPIErrorCodesMatchClient pins the openapi Error.code enum to the
// SDK's Code constants, the one Go declaration of the error codes.
func TestOpenAPIErrorCodesMatchClient(t *testing.T) {
	var enum string
	inError, inCode := false, false
	scanSpec(t, func(indent int, trimmed string) {
		switch {
		case indent <= 4:
			inError = indent == 4 && trimmed == "Error:"
			inCode = false
		case inError && indent == 8:
			inCode = trimmed == "code:"
		case inCode && indent == 10 && strings.HasPrefix(trimmed, "enum:"):
			enum = strings.TrimSpace(strings.TrimPrefix(trimmed, "enum:"))
		}
	})
	want := "[" + strings.Join([]string{client.CodeJobEvicted, client.CodeOverloaded, client.CodeReadOnlyReplica}, ", ") + "]"
	if enum != want {
		t.Fatalf("openapi Error.code enum %q, want %q", enum, want)
	}
}

// TestOpenAPISchemasMatchGoTypes pins every components/schemas entry that
// has exactly one Go type to that type's JSON fields, in both directions:
// every field the type encodes is documented, and every documented
// property is still encoded. ObservationPatch is not listed: it is a
// fragment the mutation schemas include through allOf.
func TestOpenAPISchemasMatchGoTypes(t *testing.T) {
	for _, tc := range []struct {
		schema string
		typ    any
	}{
		{"MutationLink", deltalog.Link{}},
		{"EdgeRef", deltalog.EdgeRef{}},
		{"MutationResponse", client.MutationResult{}},
		{"SupervisorStatus", client.SupervisorStatus{}},
		{"MutationStats", client.MutationStats{}},
		{"NetworkResponse", client.NetworkInfo{}},
		{"JobRequest", client.JobSpec{}},
		{"JobOptions", client.JobOptions{}},
		{"Progress", client.Progress{}},
		{"JobStatus", client.Job{}},
		{"ObjectResult", client.ObjectResult{}},
		{"ResultMetrics", client.Metrics{}},
		{"JobResult", client.Result{}},
		{"ModelInfo", client.ModelInfo{}},
		{"Error", client.APIError{}},
		{"AssignRequest", infer.RequestDoc{}},
		{"AssignObject", infer.ObjectDoc{}},
		{"ClusterProb", infer.ClusterProbDoc{}},
		{"Assignment", infer.AssignmentDoc{}},
		{"AssignResponse", client.AssignResponse{}},
		{"AssignStats", client.AssignStats{}},
		{"Health", client.Health{}},
		{"RuntimeStats", client.RuntimeStats{}},
		{"ReplicationStats", client.ReplicationStats{}},
		{"ReplicationStatus", client.ReplicationStatus{}},
		{"TraceSpan", traceSpanResponse{}},
		{"Trace", traceResponse{}},
		{"TraceList", traceListResponse{}},
	} {
		declared := parseSchemaProperties(t, tc.schema)
		typ := reflect.TypeOf(tc.typ)
		encoded := make(map[string]bool)
		for i := 0; i < typ.NumField(); i++ {
			if tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]; tag != "" && tag != "-" {
				encoded[tag] = true
			}
		}
		for name := range encoded {
			if !declared[name] {
				t.Errorf("%v encodes %q, but the openapi %s schema does not list it", typ, name, tc.schema)
			}
		}
		for name := range declared {
			if !encoded[name] {
				t.Errorf("the openapi %s schema lists %q, which %v does not encode", tc.schema, name, typ)
			}
		}
	}
}
