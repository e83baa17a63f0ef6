package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint derives the content address of a job from its full input
// specification. Each part is canonically JSON-encoded (Go struct fields in
// declaration order, map keys sorted), length-framed, and hashed, so two jobs
// share an address exactly when their specs are equal. Which code computed a
// result is not part of the address: the Cache records that per entry.
//
// Parts must be JSON-marshalable; a part that is not (e.g. contains a
// channel or function value) yields an error and the job should run
// uncached rather than risk a colliding address.
func Fingerprint(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("runner: unfingerprintable part %T: %w", p, err)
		}
		fmt.Fprintf(h, "|%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
