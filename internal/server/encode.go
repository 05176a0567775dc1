package server

import (
	"net/http"
	"strconv"
	"sync"

	"genclus/client"
	"genclus/internal/jsonscan"
)

// AppendResult appends r's JSON encoding to dst: json.Marshal's bytes for
// the document, written without reflection. A NaN or infinite value is
// an error, as json.Marshal reports it.
func AppendResult(dst []byte, r *client.Result) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = jsonscan.AppendString(dst, r.ID)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(r.K), 10)
	dst = append(dst, `,"objects":`...)
	var err error
	if r.Objects == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Objects {
			o := &r.Objects[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = jsonscan.AppendString(dst, o.ID)
			dst = append(dst, `,"type":`...)
			dst = jsonscan.AppendString(dst, o.Type)
			dst = append(dst, `,"cluster":`...)
			dst = strconv.AppendInt(dst, int64(o.Cluster), 10)
			dst = append(dst, `,"theta":`...)
			if dst, err = jsonscan.AppendFloats(dst, o.Theta); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"gamma":`...)
	if dst, err = jsonscan.AppendMap(dst, r.Gamma, jsonscan.AppendFloat); err != nil {
		return dst, err
	}
	dst = append(dst, `,"objective":`...)
	if dst, err = jsonscan.AppendFloat(dst, r.Objective); err != nil {
		return dst, err
	}
	dst = append(dst, `,"pseudo_ll":`...)
	if dst, err = jsonscan.AppendFloat(dst, r.PseudoLL); err != nil {
		return dst, err
	}
	dst = append(dst, `,"em_iterations":`...)
	dst = strconv.AppendInt(dst, int64(r.EMIterations), 10)
	dst = append(dst, `,"outer_iterations":`...)
	dst = strconv.AppendInt(dst, int64(r.OuterIterations), 10)
	if m := r.Metrics; m != nil {
		dst = append(dst, `,"metrics":{"nmi":`...)
		if dst, err = jsonscan.AppendFloat(dst, m.NMI); err != nil {
			return dst, err
		}
		dst = append(dst, `,"ari":`...)
		if dst, err = jsonscan.AppendFloat(dst, m.ARI); err != nil {
			return dst, err
		}
		dst = append(dst, `,"purity":`...)
		if dst, err = jsonscan.AppendFloat(dst, m.Purity); err != nil {
			return dst, err
		}
		dst = append(dst, `,"labeled_objects":`...)
		dst = strconv.AppendInt(dst, int64(m.Labeled), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// resultSizeHint is a generous estimate of r's encoded length, so a cold
// buffer is sized once instead of doubling its way up to a 12,000-object
// result.
func resultSizeHint(r *client.Result) int {
	n := 256 + 32*len(r.Gamma)
	for i := range r.Objects {
		o := &r.Objects[i]
		n += 48 + len(o.ID) + len(o.Type) + 24*len(o.Theta)
	}
	return n
}

// bodyBuffers recycles response buffers between requests: the result and
// assign routes encode into one and write it, so a steady stream of
// responses allocates no body.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

// writeEncoded answers code with the document encode appends, as
// writeJSON does for json.Marshal's encoding: a document that cannot be
// encoded answers a 500 error body, and the body ends in a newline. size
// is the body length to make room for up front.
func writeEncoded(w http.ResponseWriter, code, size int, encode func(dst []byte) ([]byte, error)) {
	buf := bodyBuffers.Get().(*[]byte)
	defer bodyBuffers.Put(buf)
	if cap(*buf) < size {
		*buf = make([]byte, 0, size)
	}
	data, err := encode((*buf)[:0])
	if err == nil {
		data = append(data, '\n')
	}
	*buf = data[:0]
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data) // a client that has gone away leaves nothing to answer
}
