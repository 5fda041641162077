package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// maxBodyBytes bounds request bodies; placement requests are tiny.
const maxBodyBytes = 1 << 20

// errorBody is the JSON error envelope both endpoints use.
type errorBody struct {
	Error string `json:"error"`
}

// Routes returns the handlers to mount on the observability mux
// (obs.Options.Routes):
//
//	POST /api/place     run the placement search (bounded queue, worker pool)
//	POST /api/whatif    score one concrete placement
//
// Responses carry the request ID in the X-Request-ID header, matching the
// Request field of the spans the call produced.
func (s *Service) Routes() map[string]http.Handler {
	return map[string]http.Handler{
		"POST /api/place":  http.HandlerFunc(s.handlePlace),
		"POST /api/whatif": http.HandlerFunc(s.handleWhatIf),
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func writeResponse(w http.ResponseWriter, resp Response, status int, err error) {
	if resp.ID != "" {
		w.Header().Set("X-Request-ID", resp.ID)
	}
	if err != nil {
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := responseEncoders.Get().(*responseEncoder)
	e.buf.Reset()
	if e.enc.Encode(resp) == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
	responseEncoders.Put(e)
}

// responseEncoder is an indenting JSON encoder over its own buffer, pooled
// so a response reuses the last one's encode and indent storage instead of
// growing both from nil.
type responseEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var responseEncoders = sync.Pool{New: func() any {
	e := &responseEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

func (s *Service) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The client may also propagate an ID via header; the body wins.
	if req.ID == "" {
		req.ID = r.Header.Get("X-Request-ID")
	}
	resp, status, err := s.Place(req)
	if err != nil {
		s.log.Debug("place failed", "id", req.requestID(), "status", status, "err", err)
		w.Header().Set("X-Request-ID", req.requestID())
	}
	writeResponse(w, resp, status, err)
}

func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		req.ID = r.Header.Get("X-Request-ID")
	}
	resp, status, err := s.WhatIf(req)
	if err != nil {
		s.log.Debug("whatif failed", "id", req.ID, "status", status, "err", err)
		if req.ID != "" {
			w.Header().Set("X-Request-ID", req.ID)
		}
	}
	writeResponse(w, resp, status, err)
}
