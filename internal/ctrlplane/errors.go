package ctrlplane

import "errors"

// Sentinel errors for the control plane's RPC paths. Callers classify
// failures with errors.Is rather than matching message text; the retry
// layer uses the same classification to decide what is worth another
// attempt (see retryable).
var (
	// ErrClosed reports an operation on a controller that has been
	// closed. Fatal: a closed controller never comes back (a replica
	// set recovers by listening a new one).
	ErrClosed = errors.New("ctrlplane: controller closed")
	// ErrSwitchDead reports that the switch's connection was lost while
	// a request was in flight or about to be written. Transient: the
	// agent may reconnect (possibly to another replica), so the retry
	// layer re-looks the switch up per attempt.
	ErrSwitchDead = errors.New("ctrlplane: switch connection lost")
	// ErrNoSuchSwitch reports that no switch with the requested
	// datapath ID is registered on a replica. Fatal at that replica: the
	// switch is either gone or homed on another replica, and only the
	// replica set can tell which.
	ErrNoSuchSwitch = errors.New("ctrlplane: switch not connected")
	// ErrTimeout reports a request that ran out of its per-attempt
	// deadline (ControllerConfig.RequestTimeout, bounded by the
	// caller's context). Transient: the reply may simply be slow, so a
	// retry with backoff is reasonable.
	ErrTimeout = errors.New("ctrlplane: request timed out")
)

// retryable reports whether an RPC error is transient — worth another
// attempt after backoff. Peer-reported errors (ErrorMsg) and unknown
// switches are final; lost connections and timeouts are not.
func retryable(err error) bool {
	return errors.Is(err, ErrSwitchDead) || errors.Is(err, ErrTimeout)
}
