package server

import (
	"net/http"

	"asrs/internal/wire"
)

// The error taxonomy (stable codes + retryable bits + status mapping)
// lives in internal/wire; these aliases keep the serving code and its
// tests on their historical names. See internal/wire/errors.go for the
// full table.
const (
	CodeBadRequest       = wire.CodeBadRequest
	CodeNoFeasible       = wire.CodeNoFeasible
	CodeOverloaded       = wire.CodeOverloaded
	CodeDraining         = wire.CodeDraining
	CodeCanceled         = wire.CodeCanceled
	CodeShardUnavailable = wire.CodeShardUnavailable
	CodeDeadline         = wire.CodeDeadline
	CodeInternalPanic    = wire.CodeInternalPanic
	CodeInternal         = wire.CodeInternal
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
