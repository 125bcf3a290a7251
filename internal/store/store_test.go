package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"testing"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

const storeSrc = `
input x, y : int32;
output z : int64;
z = x * y + x;
`

// fixtureSrc is the program the testdata bundles were written from (the
// transport tests' session program).
const fixtureSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

func testArtifact(t *testing.T) (*compiler.Program, *vc.Precomputation, Key) {
	t.Helper()
	prog, err := compiler.Compile(field.F128(), storeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := vc.PreprocessBackend(prog, pcp.BackendZaatar)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pre, KeyFor(prog.Source, prog.Field.Name(), pre.Backend)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog, pre, key := testArtifact(t)
	if _, err := s.Load(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store Load: %v, want ErrNotFound", err)
	}
	n, err := s.Save(key, prog, pre)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Save reported %d bytes", n)
	}
	b, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if b.Key != key {
		t.Fatalf("loaded key %s, want %s", b.Key, key)
	}
	if b.Prog.Source != prog.Source {
		t.Fatal("source changed through the bundle")
	}
	if b.Prog.Field != prog.Field {
		t.Fatal("field did not resolve to the shared instance")
	}
	if b.Pre.Backend != pre.Backend {
		t.Fatalf("backend %q after load", b.Pre.Backend)
	}
	if time.Since(b.Created) > time.Hour || time.Since(b.Created) < -time.Hour {
		t.Fatalf("implausible creation time %v", b.Created)
	}
	// No temp litter after a successful save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store dir has %d entries after one save", len(ents))
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, pre, key := testArtifact(t)
	if _, err := s.Save(key, prog, pre); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, len(magic), len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(s.Path(key), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := s.Load(key); !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: %v, want CorruptError", cut, err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, pre, key := testArtifact(t)
	if _, err := s.Save(key, prog, pre); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	// A flip anywhere — magic, header, payload, trailer — must surface as
	// corruption (or, for header flips that happen to hit the version
	// fields, a version error), never a successful load.
	for _, off := range []int{0, len(magic) + 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x40
		if err := os.WriteFile(s.Path(key), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		var ve *VersionError
		if _, err := s.Load(key); !errors.As(err, &ce) && !errors.As(err, &ve) {
			t.Fatalf("flip at byte %d: %v, want corrupt or version error", off, err)
		}
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, pre, key := testArtifact(t)
	progBytes, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	preBytes, err := pre.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	base := header{
		FormatVersion: FormatVersion,
		CodeVersion:   CodeVersion,
		SourceHash:    key.SourceHash[:],
		Field:         key.Field,
		Backend:       key.Backend,
		ProgLen:       len(progBytes),
		PreLen:        len(preBytes),
		CreatedUnix:   time.Now().Unix(),
	}
	for name, mutate := range map[string]func(*header){
		"format": func(h *header) { h.FormatVersion = FormatVersion + 1 },
		"code":   func(h *header) { h.CodeVersion = "zb0-older-build" },
	} {
		h := base
		mutate(&h)
		raw, err := encodeBundleRaw(h, progBytes, preBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// The checksum over the doctored bundle is valid: rejection must come
		// from the header version gate, proving it is checked first.
		var ve *VersionError
		if _, err := s.Load(key); !errors.As(err, &ve) {
			t.Fatalf("%s skew: %v, want VersionError", name, err)
		}
	}
}

// TestParentFormatBundleIsAVersionMiss reads bundles written by the last
// builds of each older code version, both of the transport tests' sessionSrc
// on F128, zaatar backend: testdata/zb1-F128-zaatar.zb (its precomputation
// payload still carries the divisor, inverse series and tree layers) and
// testdata/zb2-F128-zaatar.zb (its program carries the quadratic-form
// system with a product variable minted for every degree-2 term). Their
// checksums are intact; each, placed under the canonical name Load looks
// up, must be refused by the version gate, never handed to this build's
// decoders.
func TestParentFormatBundleIsAVersionMiss(t *testing.T) {
	key := KeyFor(fixtureSrc, "F128", pcp.BackendZaatar)
	for _, code := range []string{"zb1", "zb2"} {
		raw, err := os.ReadFile("testdata/" + code + "-F128-zaatar.zb")
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var ve *VersionError
		if _, err := s.Load(key); !errors.As(err, &ve) {
			t.Fatalf("Load(%s fixture): %v, want *VersionError", code, err)
		}
		if ve.GotFormat != FormatVersion || ve.GotCode != code {
			t.Fatalf("fixture reports (format %d, code %q), want (%d, %q)", ve.GotFormat, ve.GotCode, FormatVersion, code)
		}
	}
}

func TestLoadRejectsRenamedBundle(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, pre, key := testArtifact(t)
	if _, err := s.Save(key, prog, pre); err != nil {
		t.Fatal(err)
	}
	// Masquerade the bundle under a different program's canonical name: the
	// header-vs-request key check must refuse to serve it.
	other := KeyFor("input a : int32; output b : int32; b = a + a;", key.Field, key.Backend)
	raw, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(other), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := s.Load(other); !errors.As(err, &ce) {
		t.Fatalf("renamed bundle load: %v, want CorruptError", err)
	}
}

func TestKeyString(t *testing.T) {
	k := KeyFor("src", "F128", "zaatar")
	want := sha256.Sum256([]byte("src"))
	if k.SourceHash != want {
		t.Fatal("KeyFor hash mismatch")
	}
	str := k.String()
	if len(str) < 24 || str[24] != '-' {
		t.Fatalf("unexpected key form %q", str)
	}
}
