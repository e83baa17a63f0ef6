package bench

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestE15AuditArtifactIntegrity verifies the compressed form of the large
// E15 selection audit (results/e15_audit_np4096.json was 2.6 MB of committed
// JSON; it now lives as a gzip plus a readable head excerpt plus a SHA-256
// pin). The test proves the three pieces are mutually consistent: the gzip
// decompresses to valid JSON whose digest matches the pin and whose prefix is
// exactly the head excerpt.
func TestE15AuditArtifactIntegrity(t *testing.T) {
	const base = "../../results/e15_audit_np4096"

	f, err := os.Open(base + ".json.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}

	pin, err := os.ReadFile(base + ".sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(pin))
	if got := fmt.Sprintf("%x", sha256.Sum256(full)); got != want {
		t.Errorf("decompressed audit digest %s does not match pinned %s", got, want)
	}

	head, err := os.ReadFile(base + ".head.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(head) == 0 || !bytes.HasPrefix(full, head) {
		t.Error("head excerpt is not a prefix of the decompressed audit")
	}

	var doc struct {
		Winner string          `json:"winner"`
		Audit  json.RawMessage `json:"audit"`
	}
	if err := json.Unmarshal(full, &doc); err != nil {
		t.Fatalf("decompressed audit is not valid JSON: %v", err)
	}
	if doc.Winner == "" || len(doc.Audit) == 0 {
		t.Errorf("decompressed audit missing winner/audit fields (winner=%q, audit %d bytes)", doc.Winner, len(doc.Audit))
	}
}

// TestFFTFlavorRowsMatchCommitted pins one committed results/fftbench.txt row
// per kernel flavor — LibNBC, ADCL and blocking MPI from Fig 10's first
// scenario, the extended ADCL set from Fig 11's — so the transposer every
// flavor shares is held to the committed timeline by tier-1, not only by
// `make e2e` row 6.
func TestFFTFlavorRowsMatchCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../results/fftbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(committed), "\n") {
		want[strings.Join(strings.Fields(line), " ")] = true
	}
	rows := 0
	for _, fig := range []string{"fig10", "fig11"} {
		suites, err := Suites(fig, true)
		if err != nil {
			t.Fatal(err)
		}
		s := suites[0]
		s.FFT = s.FFT[:1]
		if fig == "fig11" {
			s.Flavors = s.Flavors[:1] // adcl-ext; its MPI row is Fig 10's
		}
		o, err := s.Run(RunOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range o.Tables[0].Rows {
			rows++
			if row := strings.Join(strings.Fields(strings.Join(r, " ")), " "); !want[row] {
				t.Errorf("%s row not in results/fftbench.txt: %s", fig, row)
			}
		}
	}
	if rows != 4 {
		t.Errorf("%d rows checked, want one per flavor", rows)
	}
}
