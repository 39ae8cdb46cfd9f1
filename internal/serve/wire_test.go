package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeStreamBytesPinned pins the SHA-256 of whole streamed
// response bodies, summary record included, for one run of each kind
// the daemon serves. The identity tests elsewhere decode each line, so
// a reordered key, a different float format or a different string
// escape would still pass them; these digests would not. The runs go
// through one server in a fixed order, so the run ids in the summary
// records are fixed too.
func TestServeStreamBytesPinned(t *testing.T) {
	cases := []struct {
		name, spec, digest string
	}{
		{"standard-all-ndjson",
			`{"workers":2,"session":"pin","stream":"ndjson"}`,
			"35dd043bddbe477f7812abc5cc811badb6ff15e6e2e9b5990c0d483d1064a5f5"},
		{"standard-all-sse",
			`{"workers":2,"session":"pin","stream":"sse"}`,
			"a2b3ebde4a58d379eb782938e0dfffe6e1b2f832586d5a37cbb362d93eb71f68"},
		{"challenge-gpt4o",
			`{"kind":"challenge","models":["GPT4o"],"session":"pin","stream":"ndjson"}`,
			"d74b4f59154535cdf84d40605bac9e0e944afcf7059c6fc3dacb975bb88cc60a"},
		{"downsample16-gpt4o",
			`{"models":["GPT4o"],"downsample":16,"session":"pin","stream":"ndjson"}`,
			"fc785b439705ff493a2ca776440965d13445ce9b2f2d2a66d28787bab5d30c90"},
		{"extended-small",
			`{"kind":"extended","seed":"pin-ext","per_category":3,"shard_size":4,"models":["GPT4o","LLaVA-7b"],"session":"pin","stream":"ndjson"}`,
			"8673a44d3d161a949e1d3a32704ba58996ac5cf7aed7170b3eb76ee1c42051d0"},
		{"adaptive-small",
			adaptiveSpec(`,"session":"pin","stream":"ndjson"`),
			"dbdc2b5d4811151a8cb0f30d967c06980731254d72c5ed7e47982bc45dba708d"},
	}
	_, ts := startServer(t, testConfig(t))
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST = %d (%s)", c.name, resp.StatusCode, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: body (%d bytes) digest %s, want %s", c.name, len(body), got, c.digest)
		}
	}
}
