package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// TenantHeader names the HTTP header carrying the caller's tenant id.
// Absent or empty means the "default" tenant.
const TenantHeader = "X-DQEMU-Tenant"

// maxRequestBytes bounds a POST body: guest images and input files are
// small; anything bigger is a client bug or abuse.
const maxRequestBytes = 64 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST   /v1/jobs             submit (JobRequest body)   → 202 JobStatus
//	GET    /v1/jobs             list (?tenant=)            → []JobStatus
//	GET    /v1/jobs/{id}        status (?wait_ms=)         → JobStatus
//	GET    /v1/jobs/{id}/output console text               → text/plain
//	GET    /v1/jobs/{id}/result status+console+metrics     → JobResult
//	DELETE /v1/jobs/{id}        cancel                     → 200 JobStatus
//	GET    /v1/status           daemon + tenant accounting → Status
//	GET    /v1/ping             liveness                   → "OK"
//
// Errors are JSON APIError bodies with matching HTTP status codes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/ping", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "OK")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		apiErr = &APIError{Status: http.StatusInternalServerError, Message: err.Error()}
	}
	writeJSON(w, apiErr.Status, apiErr)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, &APIError{Status: http.StatusBadRequest, Message: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	st, err := s.Submit(r.Header.Get(TenantHeader), &req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs(r.URL.Query().Get("tenant"))
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 || n > math.MaxInt64/int64(time.Millisecond) {
			writeErr(w, &APIError{Status: http.StatusBadRequest, Message: "wait_ms must be an integer in [0, 9223372036854]"})
			return
		}
		wait = time.Duration(n) * time.Millisecond
	}
	st, err := s.Wait(r.Context(), id, wait)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-DQEMU-Job-State", string(res.State))
	if res.ExitCode != nil {
		w.Header().Set("X-DQEMU-Exit-Code", strconv.FormatInt(*res.ExitCode, 10))
	}
	w.Write([]byte(res.Console))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.Job(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ServerStatus())
}
