package infer

import (
	"strconv"

	"genclus/internal/hin"
	"genclus/internal/jsonscan"
)

// AppendRequest appends req's JSON encoding to dst: json.Marshal's bytes
// for the document, written without reflection. A NaN or infinite weight,
// count or value is an error, as json.Marshal reports it.
func AppendRequest(dst []byte, req *RequestDoc) ([]byte, error) {
	dst = append(dst, `{"objects":`...)
	if req.Objects == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range req.Objects {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendObject(dst, &req.Objects[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if req.TopK != 0 {
		dst = append(dst, `,"top_k":`...)
		dst = strconv.AppendInt(dst, int64(req.TopK), 10)
	}
	return append(dst, '}'), nil
}

// appendObject appends one query object, leaving out its empty omitempty
// fields.
func appendObject(dst []byte, o *ObjectDoc) ([]byte, error) {
	dst = append(dst, '{')
	mark := len(dst) // a field after the first is preceded by a comma
	if o.ID != "" {
		dst = append(dst, `"id":`...)
		dst = jsonscan.AppendString(dst, o.ID)
	}
	var err error
	if len(o.Links) > 0 {
		dst = appendKey(dst, mark, "links")
		for i, l := range o.Links {
			if i == 0 {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"rel":`...)
			dst = jsonscan.AppendString(dst, l.Relation)
			dst = append(dst, `,"to":`...)
			dst = jsonscan.AppendString(dst, l.To)
			dst = append(dst, `,"w":`...)
			if dst, err = jsonscan.AppendFloat(dst, l.Weight); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(o.Terms) > 0 {
		dst = appendKey(dst, mark, "terms")
		if dst, err = jsonscan.AppendMap(dst, o.Terms, appendTermList); err != nil {
			return dst, err
		}
	}
	if len(o.Numeric) > 0 {
		dst = appendKey(dst, mark, "numeric")
		if dst, err = jsonscan.AppendMap(dst, o.Numeric, jsonscan.AppendFloats); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendKey appends an object member's key, after a comma unless the
// object's members start at mark and none has been written yet.
func appendKey(dst []byte, mark int, name string) []byte {
	if len(dst) > mark {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendTermList appends a list of {"t","c"} term counts, or null.
func appendTermList(dst []byte, tcs []hin.TermCount) ([]byte, error) {
	if tcs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, tc := range tcs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"t":`...)
		dst = strconv.AppendInt(dst, int64(tc.Term), 10)
		dst = append(dst, `,"c":`...)
		var err error
		if dst, err = jsonscan.AppendFloat(dst, tc.Count); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// AppendResponse appends resp's JSON encoding to dst: json.Marshal's bytes
// for the document, written without reflection. A NaN or infinite
// probability is an error, as json.Marshal reports it.
func AppendResponse(dst []byte, resp *ResponseDoc) ([]byte, error) {
	dst = append(dst, `{"model_id":`...)
	dst = jsonscan.AppendString(dst, resp.ModelID)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(resp.K), 10)
	dst = append(dst, `,"assignments":`...)
	if resp.Assignments == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Assignments {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendAssignment(dst, &resp.Assignments[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"batched":`...)
	dst = strconv.AppendBool(dst, resp.Batched)
	return append(dst, '}'), nil
}

// appendAssignment appends one assignment; an empty id is left out.
func appendAssignment(dst []byte, a *AssignmentDoc) ([]byte, error) {
	dst = append(dst, '{')
	if a.ID != "" {
		dst = append(dst, `"id":`...)
		dst = jsonscan.AppendString(dst, a.ID)
		dst = append(dst, ',')
	}
	dst = append(dst, `"cluster":`...)
	dst = strconv.AppendInt(dst, int64(a.Cluster), 10)
	dst = append(dst, `,"theta":`...)
	var err error
	if dst, err = jsonscan.AppendFloats(dst, a.Theta); err != nil {
		return dst, err
	}
	dst = append(dst, `,"top":`...)
	if a.Top == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, cp := range a.Top {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"cluster":`...)
			dst = strconv.AppendInt(dst, int64(cp.Cluster), 10)
			dst = append(dst, `,"p":`...)
			if dst, err = jsonscan.AppendFloat(dst, cp.P); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"fold_in_iters":`...)
	dst = strconv.AppendInt(dst, int64(a.FoldInIters), 10)
	return append(dst, '}'), nil
}
