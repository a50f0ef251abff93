package server

import (
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"asrs/internal/wire"
)

// recoverMiddleware converts a handler panic into a 500 instead of
// tearing down the whole connection (and with it, unrelated in-flight
// requests on HTTP/2). The stack goes to the process log; the client
// gets a generic error envelope.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, wire.CodeInternalPanic, false, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// LogMiddleware wraps a handler with one access-log line per request
// (method, path, status, duration). The daemon mounts it when -verbose
// is set; tests and benchmarks skip it.
func LogMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start))
	})
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap lets http.NewResponseController reach the connection (the drain
// moves a registered request's read deadline through it).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
