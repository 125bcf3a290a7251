// Package store persists compiled programs and their prover-side
// precomputations as content-addressed single-file bundles, so a restarted
// prover service serves previously-seen programs warm (no compile, no QAP
// preprocessing) and pre-baked bundles can be shipped between hosts
// (zaatar-compile -bundle). Bundles are keyed by source hash + field +
// backend — exactly the transport program-cache key — making the disk store
// a second tier under the in-memory LRU.
//
// A bundle file is:
//
//	magic (8 bytes) ─ uvarint header length ─ gob header ─ program payload
//	─ precomputation payload ─ sha256 trailer over everything before it
//
// The header carries the format and code versions, the full key, and the
// payload lengths. Readers check versions first (a bundle from a different
// build of the serialization code is rejected by the header alone), then
// the checksum, then decode. Writes go to a temp file in the same
// directory followed by an atomic rename, so readers never observe a
// partial bundle and a crashed writer leaves only a stale temp file.
//
// Every failure mode short of an I/O error on a healthy file is typed —
// ErrNotFound, *VersionError, *CorruptError — and callers (transport's
// two-tier cache) treat all of them as a miss: recompile, overwrite, never
// crash.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/vc"
)

// FormatVersion is the bundle container layout version. Bump only when the
// byte layout above changes.
const FormatVersion = 1

// CodeVersion names the build of the serialization code that produced a
// bundle's payloads (program gob schema, QAP binary layout, backend
// codecs). A reader only accepts bundles whose CodeVersion matches its own
// exactly: payload formats carry no internal versioning, so skew here would
// decode garbage with a valid checksum. Bump on any payload format change.
//
// zb2: the zaatar precomputation payload is the QAP's sparse rows only (zb1
// appended the divisor, its inverse series and the subproduct-tree layers).
// zb3: the program's Quad system keeps Ginger rows that are already in
// quadratic form (constraint.ToQuad); a zb2 bundle carries the doubled one.
const CodeVersion = "zb3"

var magic = [8]byte{'z', 'a', 'a', 't', 'a', 'r', 'z', 'b'}

// Key identifies one bundle: the same source compiled for a different field
// or preprocessed for a different backend is a different artifact.
type Key struct {
	SourceHash [sha256.Size]byte
	Field      string // field name, e.g. "F128"
	Backend    string // pcp backend name, e.g. "zaatar"
}

// KeyFor derives the bundle key for a program source under a field and
// backend.
func KeyFor(source, fieldName, backend string) Key {
	return Key{SourceHash: sha256.Sum256([]byte(source)), Field: fieldName, Backend: backend}
}

// String renders the key in the canonical "hash-field-backend" form used in
// filenames and logs (hash truncated to 96 bits — full equality is always
// checked against the header, so filename collisions degrade to a miss, not
// a wrong answer).
func (k Key) String() string {
	return fmt.Sprintf("%s-%s-%s", hex.EncodeToString(k.SourceHash[:])[:24], k.Field, k.Backend)
}

// ErrNotFound reports a key with no bundle on disk.
var ErrNotFound = errors.New("store: bundle not found")

// CorruptError reports a bundle that exists but cannot be trusted: bad
// magic, checksum mismatch, truncation, undecodable payload, or a header
// key that does not match its contents. Callers treat it as a miss.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt bundle %s: %s", e.Path, e.Reason)
}

// VersionError reports a structurally-sound bundle written by an
// incompatible format or code version. Callers treat it as a miss.
type VersionError struct {
	Path      string
	GotFormat int
	GotCode   string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: bundle %s has version (format %d, code %q), this build reads (format %d, code %q)",
		e.Path, e.GotFormat, e.GotCode, FormatVersion, CodeVersion)
}

// header is the gob-encoded bundle header. Version fields are checked
// before anything else is believed.
type header struct {
	FormatVersion int
	CodeVersion   string
	SourceHash    []byte
	Field         string
	Backend       string
	ProgLen       int
	PreLen        int
	CreatedUnix   int64
}

// Bundle is a decoded bundle: the compiled program plus the prover-side
// precomputation, both immutable and safe to share across sessions.
type Bundle struct {
	Key     Key
	Prog    *compiler.Program
	Pre     *vc.Precomputation
	Created time.Time
}

// Store is a directory of bundles. The zero value is unusable; construct
// with Open. A Store is safe for concurrent use: writes are atomic renames
// and reads never see partial files.
type Store struct {
	dir string
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the canonical bundle filename for a key.
func (s *Store) Path(k Key) string {
	return filepath.Join(s.dir, k.String()+".zb")
}

// Contains reports whether a bundle file exists for the key (without
// validating it — Load does that).
func (s *Store) Contains(k Key) bool {
	_, err := os.Stat(s.Path(k))
	return err == nil
}

// Load reads, verifies, and decodes the bundle for a key. It returns
// ErrNotFound when no file exists, *VersionError for incompatible bundles,
// and *CorruptError for everything untrustworthy; all three are misses.
func (s *Store) Load(k Key) (*Bundle, error) {
	path := s.Path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	b, err := decodeBundle(path, raw)
	if err != nil {
		return nil, err
	}
	if b.Key != k {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("header key %s does not match requested %s", b.Key, k)}
	}
	return b, nil
}

// Save encodes and atomically writes the bundle for a key, returning the
// bundle size in bytes. The temp file lives in the store directory so the
// rename never crosses filesystems.
func (s *Store) Save(k Key, prog *compiler.Program, pre *vc.Precomputation) (int64, error) {
	raw, err := encodeBundle(k, prog, pre)
	if err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(k)); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return int64(len(raw)), nil
}

// Install validates a bundle file produced elsewhere (zaatar-compile
// -bundle on another host) and copies it into the store under its canonical
// name, returning its key.
func (s *Store) Install(path string) (Key, error) {
	b, err := ReadBundle(path)
	if err != nil {
		return Key{}, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return Key{}, fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return Key{}, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return Key{}, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Key{}, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(b.Key)); err != nil {
		return Key{}, fmt.Errorf("store: %w", err)
	}
	return b.Key, nil
}

// WriteBundle encodes prog and pre into a standalone bundle file at path
// (atomically, via a temp file in the same directory), deriving the key
// from the program and precomputation themselves. Returns the key and the
// bundle size.
func WriteBundle(path string, prog *compiler.Program, pre *vc.Precomputation) (Key, int64, error) {
	k := KeyFor(prog.Source, prog.Field.Name(), pre.Backend)
	raw, err := encodeBundle(k, prog, pre)
	if err != nil {
		return Key{}, 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return Key{}, 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return Key{}, 0, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Key{}, 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Key{}, 0, fmt.Errorf("store: %w", err)
	}
	return k, int64(len(raw)), nil
}

// ReadBundle reads and fully verifies a standalone bundle file.
func ReadBundle(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return decodeBundle(path, raw)
}

func encodeBundle(k Key, prog *compiler.Program, pre *vc.Precomputation) ([]byte, error) {
	if prog == nil || pre == nil {
		return nil, errors.New("store: nil program or precomputation")
	}
	if got := KeyFor(prog.Source, prog.Field.Name(), pre.Backend); got != k {
		return nil, fmt.Errorf("store: key %s does not match contents %s", k, got)
	}
	progBytes, err := prog.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	preBytes, err := pre.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	h := header{
		FormatVersion: FormatVersion,
		CodeVersion:   CodeVersion,
		SourceHash:    k.SourceHash[:],
		Field:         k.Field,
		Backend:       k.Backend,
		ProgLen:       len(progBytes),
		PreLen:        len(preBytes),
		CreatedUnix:   time.Now().Unix(),
	}
	return encodeBundleRaw(h, progBytes, preBytes)
}

// encodeBundleRaw assembles the container around already-encoded payloads.
// Split out so tests can write bundles with doctored headers.
func encodeBundleRaw(h header, progBytes, preBytes []byte) ([]byte, error) {
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
		return nil, fmt.Errorf("store: encode header: %w", err)
	}
	out := make([]byte, 0, len(magic)+10+hdr.Len()+len(progBytes)+len(preBytes)+sha256.Size)
	out = append(out, magic[:]...)
	out = binary.AppendUvarint(out, uint64(hdr.Len()))
	out = append(out, hdr.Bytes()...)
	out = append(out, progBytes...)
	out = append(out, preBytes...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

func decodeBundle(path string, raw []byte) (*Bundle, error) {
	if len(raw) < len(magic)+1+sha256.Size {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("only %d bytes", len(raw))}
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, &CorruptError{Path: path, Reason: "bad magic"}
	}
	body := raw[:len(raw)-sha256.Size]
	rest := raw[len(magic):]
	hdrLen, used := binary.Uvarint(rest)
	if used <= 0 || hdrLen > uint64(len(rest)-used) {
		return nil, &CorruptError{Path: path, Reason: "bad header length"}
	}
	rest = rest[used:]
	var h header
	if err := gob.NewDecoder(bytes.NewReader(rest[:hdrLen])).Decode(&h); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("undecodable header: %v", err)}
	}
	// Version gate first: a bundle from a different serialization build is a
	// version error even when its checksum is intact.
	if h.FormatVersion != FormatVersion || h.CodeVersion != CodeVersion {
		return nil, &VersionError{Path: path, GotFormat: h.FormatVersion, GotCode: h.CodeVersion}
	}
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], raw[len(raw)-sha256.Size:]) {
		return nil, &CorruptError{Path: path, Reason: "checksum mismatch"}
	}
	rest = rest[hdrLen:]
	if h.ProgLen < 0 || h.PreLen < 0 || len(rest) != h.ProgLen+h.PreLen+sha256.Size {
		return nil, &CorruptError{Path: path, Reason: "payload length mismatch"}
	}
	if len(h.SourceHash) != sha256.Size {
		return nil, &CorruptError{Path: path, Reason: "bad source hash length"}
	}
	var k Key
	copy(k.SourceHash[:], h.SourceHash)
	k.Field, k.Backend = h.Field, h.Backend

	prog, err := compiler.UnmarshalProgram(rest[:h.ProgLen])
	if err != nil {
		return nil, &CorruptError{Path: path, Reason: err.Error()}
	}
	// The program must actually be what the key claims: a bundle renamed (or
	// colliding) onto the wrong canonical name must never serve a different
	// program than the client hashed.
	if got := KeyFor(prog.Source, prog.Field.Name(), k.Backend); got != k {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("contents hash to %s, header says %s", got, k)}
	}
	pre, err := vc.UnmarshalPrecomputation(prog, k.Backend, rest[h.ProgLen:h.ProgLen+h.PreLen])
	if err != nil {
		return nil, &CorruptError{Path: path, Reason: err.Error()}
	}
	return &Bundle{Key: k, Prog: prog, Pre: pre, Created: time.Unix(h.CreatedUnix, 0)}, nil
}
