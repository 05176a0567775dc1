package hin

import "fmt"

// FilterEdges returns a new network containing the same objects, attributes
// and observations, but only the edges for which keep returns true. The
// object and relation index spaces are preserved (relations that lose all
// their edges remain declared), so memberships and strengths fitted on the
// filtered network remain index-compatible with the original — the
// held-out link-prediction evaluation depends on this.
func FilterEdges(n *Network, keep func(Edge) bool) (*Network, error) {
	if n == nil {
		return nil, fmt.Errorf("hin: FilterEdges on nil network")
	}
	b := NewBuilder()
	CloneInto(b, n, keep, nil)
	return b.Build()
}
