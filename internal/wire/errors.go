package wire

import (
	"context"
	"errors"
	"net/http"

	"asrs"
	"asrs/internal/kernel"
	"asrs/internal/shard"
)

// Wire-visible error taxonomy. Every failed response carries a stable
// machine-readable code and a retryable bit, so clients decide
// retry-vs-surface without string-matching error text:
//
//	code               status  retryable  meaning
//	bad_request        400     no         the request itself is invalid
//	no_feasible_region 404     no         every candidate region is excluded or out of extent
//	overloaded         429     yes        shed by admission control; honor Retry-After
//	draining           503     yes        server shutting down; try another replica
//	canceled           503     yes        the serving context aborted the search mid-run
//	shard_unavailable  503     yes        a shard the query needed is tripped/failed; retry
//	deadline           504     yes        the per-query deadline expired
//	internal_panic     500     no         a query panicked inside the engine (isolated)
//	internal           500     no         any other server-side failure
//
// Retryable means "the same request may succeed later or elsewhere":
// overload, drain, deadline and shard unavailability are conditions of
// the moment (breakers reclose, probes readmit); panics and validation
// failures are properties of the request or the build and retrying them
// wastes capacity.
const (
	CodeBadRequest       = "bad_request"
	CodeNoFeasible       = "no_feasible_region"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeCanceled         = "canceled"
	CodeShardUnavailable = "shard_unavailable"
	CodeDeadline         = "deadline"
	CodeInternalPanic    = "internal_panic"
	CodeInternal         = "internal"
)

// Classify maps an engine response error to its HTTP status, wire
// code, and retryable bit. Client input is validated before the engine
// is reached (400 in the handlers), so an unrecognized engine error
// here is a server-side failure.
func Classify(err error) (status int, code string, retryable bool) {
	var pe *kernel.PanicError
	var ue *shard.UnavailableError
	switch {
	case err == nil:
		return http.StatusOK, "", false
	case errors.Is(err, asrs.ErrExtentTooSmall):
		return http.StatusBadRequest, CodeBadRequest, false
	case errors.Is(err, asrs.ErrNoFeasibleRegion):
		return http.StatusNotFound, CodeNoFeasible, false
	case errors.As(err, &ue):
		return http.StatusServiceUnavailable, CodeShardUnavailable, true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadline, true
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, CodeCanceled, true
	case errors.As(err, &pe):
		return http.StatusInternalServerError, CodeInternalPanic, false
	default:
		return http.StatusInternalServerError, CodeInternal, false
	}
}
