package mpi

// Aliases for the external test package: the record sizes it pins include
// these two unexported ones.
type (
	Envelope = envelope
	Xfer     = xfer
)
