package infer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"genclus/internal/jsonscan"
)

// TestDecodeRequestStopsStoringPastTheBatch checks that a request over the
// batch bound stages nothing past it, however large the rest of the
// document is, and still answers with the full object count.
func TestDecodeRequestStopsStoringPastTheBatch(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"objects":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":"q%d","links":[{"rel":"r","to":"a","w":1}],"terms":{"t":[{"t":1,"c":1}]},"numeric":{"n":[1,2]}}`, i)
	}
	sb.WriteString(`]}`)
	doc := []byte(sb.String())
	d := &requestDecoder{Scanner: jsonscan.Scanner{Data: doc}, text: string(doc), maxBatch: 10}
	if err := d.Document("the assign request", d.request); err != nil {
		t.Fatal(err)
	}
	if len(d.objects) > 10 || len(d.links) > 10 || len(d.tcs) > 10 || len(d.nums) > 20 || len(d.cats) > 10 || len(d.numObs) > 10 {
		t.Fatalf("staged %d objects, %d links, %d term counts, %d values past a batch of 10",
			len(d.objects), len(d.links), len(d.tcs), len(d.nums))
	}
	var lim *LimitError
	if _, _, err := DecodeRequest(doc, 10); !errors.As(err, &lim) || lim.Got != 1000 {
		t.Fatalf("got %v, want a batch-size limit error for 1000 objects", err)
	}
}
