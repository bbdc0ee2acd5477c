package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// apiError is the JSON error envelope every non-2xx API response carries.
type apiError struct {
	// Error is the human-readable cause.
	Error string `json:"error"`
}

// CheckpointView is the wire projection of a store ref: the content hash
// travels as lowercase hex rather than a byte array.
type CheckpointView struct {
	// Job is the owning job identifier.
	Job string `json:"job"`
	// Seq is the job-local checkpoint number.
	Seq int `json:"seq"`
	// Sum is the content hash in lowercase hex — the object's address.
	Sum string `json:"sum"`
	// Time is when the checkpoint was recorded.
	Time time.Time `json:"time"`
}

// NewHandler wraps a Daemon in the kfacd HTTP JSON API:
//
//	POST /api/v1/jobs                  submit a JobSpec → JobView
//	GET  /api/v1/jobs                  list jobs (submit order)
//	GET  /api/v1/jobs/{id}             inspect one job, spec included
//	POST /api/v1/jobs/{id}/pause       park the job, checkpoint retained
//	POST /api/v1/jobs/{id}/resume      re-queue a paused job
//	POST /api/v1/jobs/{id}/cancel      terminate via consensus stop
//	GET  /api/v1/jobs/{id}/metrics     step metrics; ?since=N for the tail
//	GET  /api/v1/jobs/{id}/checkpoints the job's store refs, oldest first
//	GET  /api/v1/store                 store stats
//	GET  /healthz                      liveness
//
// Every response is JSON; errors use the {"error": ...} envelope with 400
// for bad specs/verbs, 413 for a spec body over maxJobSpecBytes, 404 for
// unknown jobs, and 503 while draining.
func NewHandler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /api/v1/store", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Store().Stats()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, apiError{fmt.Sprintf("decoding job spec: %v", err)})
			return
		}
		v, err := d.Submit(&spec)
		if err != nil {
			// An admission rejection still created an (audit) job record;
			// carry its view alongside the error when present.
			status := http.StatusBadRequest
			var adm *AdmissionError
			if errors.As(err, &adm) {
				status = http.StatusUnprocessableEntity
			}
			if v.ID != "" {
				writeJSON(w, status, struct {
					apiError
					Job JobView `json:"job"`
				}{apiError{err.Error()}, v})
				return
			}
			writeJSON(w, status, apiError{err.Error()})
			return
		}
		writeJSON(w, http.StatusCreated, v)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Jobs())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := d.Job(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusNotFound, apiError{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	verb := func(do func(string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := do(id); err != nil {
				status := http.StatusBadRequest
				if _, jerr := d.Job(id); jerr != nil {
					status = http.StatusNotFound
				}
				writeJSON(w, status, apiError{err.Error()})
				return
			}
			v, _ := d.Job(id)
			writeJSON(w, http.StatusOK, v)
		}
	}
	mux.HandleFunc("POST /api/v1/jobs/{id}/pause", verb(d.Pause))
	mux.HandleFunc("POST /api/v1/jobs/{id}/resume", verb(d.Resume))
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", verb(d.Cancel))
	mux.HandleFunc("GET /api/v1/jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		since := 0
		if q := r.URL.Query().Get("since"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad since %q", q)})
				return
			}
			since = n
		}
		ms, err := d.Metrics(r.PathValue("id"), since)
		if err != nil {
			writeJSON(w, http.StatusNotFound, apiError{err.Error()})
			return
		}
		if ms == nil {
			ms = []StepMetric{}
		}
		writeJSON(w, http.StatusOK, ms)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/checkpoints", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := d.Job(id); err != nil {
			writeJSON(w, http.StatusNotFound, apiError{err.Error()})
			return
		}
		refs, err := d.Store().Refs(id)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
			return
		}
		views := make([]CheckpointView, 0, len(refs))
		for _, r := range refs {
			views = append(views, CheckpointView{
				Job: r.Job, Seq: r.Seq, Sum: r.Hex(), Time: r.Time,
			})
		}
		writeJSON(w, http.StatusOK, views)
	})
	return mux
}

// maxJobSpecBytes caps a submitted JobSpec body. A spec with every field
// set is under 1 KiB; the cap is what bounds the length of an mlp's dims
// list, and so the layer count of the instance Admit builds (at most 32 Ki
// unit-width layers, about 36 MB of layers and factor refs).
const maxJobSpecBytes = 64 << 10

// decodeJobSpec reads one submitted JobSpec, rejecting fields the spec does
// not declare so a misspelt knob fails loudly instead of defaulting.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone if this fails
}
