// Package tablesio persists precomputed search tables. The paper leans
// on exactly this workflow: the k = 9 tables are computed once ("This
// can be done in advance, on a larger machine, and need not be repeated
// for each reversible function", §3.1), stored, and reloaded before
// querying — their CS1 runs spend 1111 seconds loading the tables from
// disk (§4.1), and §5 estimates a 5-minute load on commodity hardware.
//
// The store format, v2 (see format2.go), persists the frozen probe-table
// layout of a bfs.Result itself, so a load is a header check plus a
// memory map: cold start in milliseconds, where parsing and rehashing an
// entry stream takes seconds to minutes. SaveV2 and SaveFile write it;
// Load and LoadWithOptions stream and fully verify it; LoadFile adds the
// mmap fast path. A file of any other version — the retired v1 entry
// stream ("RVT1") included — is rejected with ErrUnsupportedVersion.
//
// The alphabet itself is NOT serialized — it is reconstructable code —
// but a fingerprint (element count, max cost, XOR/sum of element words)
// is stored and verified on load so tables cannot be rehydrated against
// the wrong alphabet.
package tablesio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// The magic is "RVT" plus an ASCII version byte. Version gating lets a
// reader reject files written by a newer incompatible format with a
// precise error instead of a checksum mismatch deep into the stream.
var (
	magicPrefix = [3]byte{'R', 'V', 'T'}
)

// version2 is the zero-copy frozen-table format (format2.go), the only
// version this build reads or writes.
const version2 = byte('2')

const (
	flagReduced = 1 << 0
	// flagSplit marks a v2 store holding one high-hash range of a table
	// set (see SaveSplit); the header then carries the split extension
	// and the file a global-position section.
	flagSplit = 1 << 1
)

// Sentinel errors, matchable with errors.Is; every Load failure wraps
// exactly one of them. A failure caused by the reader itself (EIO,
// truncation) additionally wraps the underlying I/O error, so callers
// that need to distinguish a damaged store from a flaky transport can
// errors.Is against both.
var (
	// ErrBadMagic reports a stream that is not a tables file at all.
	ErrBadMagic = errors.New("tablesio: not a tables file")
	// ErrUnsupportedVersion reports a tables file written in a format
	// version other than v2: a newer one, or the retired v1 entry
	// stream. Rebuild such a store with revtables -save.
	ErrUnsupportedVersion = errors.New("tablesio: unsupported format version")
	// ErrAlphabetMismatch reports tables saved against a different
	// alphabet than the one supplied to Load.
	ErrAlphabetMismatch = errors.New("tablesio: alphabet fingerprint mismatch")
	// ErrCorrupt reports structural damage: implausible sizes, invalid
	// permutation words, duplicate entries, or a checksum mismatch.
	ErrCorrupt = errors.New("tablesio: corrupt tables file")
	// ErrSplitStore reports a split store (one hash range of a table
	// set) offered to a loader that was not told to expect one. A
	// partial table silently served as a full one would answer "absent"
	// for every key outside its range, so loads must opt in
	// (LoadOptions.AllowSplit) and route the result through a
	// range-aware backend (tables.Partial).
	ErrSplitStore = errors.New("tablesio: split store requires AllowSplit")
)

// fingerprint is the persisted alphabet summary — the shared type the
// whole serving stack (store headers, network handshakes, backend
// metadata) agrees on, so a table can never be interpreted against the
// wrong building-block set no matter which transport delivered it.
type fingerprint = tables.Fingerprint

func fingerprintOf(a *bfs.Alphabet) fingerprint { return tables.FingerprintOf(a) }

// SaveFile persists a BFS result to path atomically in format v2 (the
// zero-copy layout LoadFile memory-maps): the stream is written to a
// temp file in the destination directory (same filesystem, so the final
// rename is atomic and cannot fail with EXDEV) — a crash mid-write never
// leaves a truncated store that would fail the next load.
func SaveFile(path string, res *bfs.Result) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".revtables-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveV2(tmp, res); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes 0600 files; tables are built by one user and
	// served by another (the compute-once workflow), so restore the
	// conventional umask-style mode before publishing.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SaveSplitFile persists range i of n of a result as a split v2 store,
// with the same atomic temp-file-and-rename discipline as SaveFile.
func SaveSplitFile(path string, res *bfs.Result, n, i int) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".revtables-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveSplit(tmp, res, n, i); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadOptions tune LoadWithOptions and LoadFile; the zero value (and a
// nil pointer) reproduces Load's defaults.
type LoadOptions struct {
	// Progress, when non-nil, is called after each completed cost level
	// with the level index and the number of entries it carried — the
	// streaming hook a long-lived service uses to report load progress
	// (the paper's k = 9 load takes minutes, §4.1/§5).
	Progress func(level, entries int)
	// MaxEntries caps the total entry count a header may declare; zero
	// means DefaultMaxEntries. Lower it when loading untrusted input so
	// a forged header cannot commit the process to gigabytes of hash
	// table before the (end-of-stream) checksum is verified.
	MaxEntries int64
	// VerifyContent makes the LoadFile mmap fast path pay one sequential
	// pass to check the section fingerprints and structural invariants
	// it otherwise defers (the streaming paths always verify).
	VerifyContent bool
	// DisableMmap forces LoadFile through the streaming loader even for
	// v2 stores on capable hosts.
	DisableMmap bool
	// AllowSplit permits loading split stores (SaveSplit); without it
	// every loader rejects them with ErrSplitStore. Only LoadFile can
	// return the split metadata (LoadInfo.Split), so split stores must
	// be loaded through it.
	AllowSplit bool
}

// DefaultMaxEntries bounds the declared entry count accepted by Load:
// slightly above the paper's k = 9 table (≈2.2 × 10⁹ classes, §4.1).
const DefaultMaxEntries = 1 << 33

// maxEntries resolves the MaxEntries cap (zero: DefaultMaxEntries).
func (o *LoadOptions) maxEntries() int64 {
	if o.MaxEntries <= 0 {
		return DefaultMaxEntries
	}
	return o.MaxEntries
}

// checkMagic classifies a store's first four bytes, which m holds:
// ErrBadMagic for a file that is not a tables file at all,
// ErrUnsupportedVersion for a tables file of any version but v2.
func checkMagic(m []byte) error {
	if [3]byte{m[0], m[1], m[2]} != magicPrefix {
		return fmt.Errorf("%w: bad magic %q", ErrBadMagic, m)
	}
	if m[3] != version2 {
		return fmt.Errorf("%w: file version %q, this build reads only %q", ErrUnsupportedVersion, m[3], version2)
	}
	return nil
}

// Load rehydrates a BFS result saved by SaveV2 or SaveFile. The alphabet
// must be the same construction that produced the saved tables; a
// fingerprint mismatch, version mismatch, truncation, or corruption is
// reported as an error (wrapping the package's sentinel errors), never a
// panic.
func Load(r io.Reader, alphabet *bfs.Alphabet) (*bfs.Result, error) {
	return LoadWithOptions(r, alphabet, nil)
}

// LoadWithOptions is Load with streaming progress reporting and resource
// caps. The store's integrity is verified in full on this path — it is
// the one for untrusted bytes; LoadFile adds the trusting mmap fast
// path. The result is immediately servable.
func LoadWithOptions(r io.Reader, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, error) {
	if alphabet == nil {
		return nil, fmt.Errorf("tablesio: nil alphabet")
	}
	if opts == nil {
		opts = &LoadOptions{}
	}
	br := bufio.NewReaderSize(r, 1<<20)
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrBadMagic, err)
	}
	if err := checkMagic(m); err != nil {
		return nil, err
	}
	// The reader path has no way to hand back split metadata, so it loads
	// full stores only: loadV2Stream rejects split stores unless
	// AllowSplit, and callers that need the metadata use LoadFile.
	if opts.AllowSplit {
		return nil, fmt.Errorf("tablesio: AllowSplit requires LoadFile (the reader path cannot return split metadata)")
	}
	res, _, err := loadV2Stream(br, alphabet, opts, opts.maxEntries())
	return res, err
}
