package server

import (
	"net/http"

	"asrs/internal/wire"
)

// classify maps an answer's error to its HTTP status, wire code and
// retryable bit, and counts a 504: every front door counts its timeouts
// here.
func (s *Server) classify(err error) (status int, code string, retryable bool) {
	status, code, retryable = wire.Classify(err)
	if status == http.StatusGatewayTimeout {
		s.nTimeouts.Add(1)
	}
	return status, code, retryable
}
