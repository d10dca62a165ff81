// annwal inspects and replays a durable store directory written by
// annserve -wal (see internal/store).
//
// Summary (default): manifest, segment list, record counts.
//
//	annwal /var/lib/ann/store
//
// Dump every WAL record; kinds carrying a tag block show their tag
// count and kinds carrying a text block show the text length plus a
// short preview:
//
//	annwal -dump /var/lib/ann/store
//
// Verify: scan all segments checking framing and CRCs; exit non-zero
// on corruption anywhere but a torn final record (which recovery
// repairs by truncation).
//
//	annwal -verify /var/lib/ann/store
//
// Replay: run full recovery (snapshot + WAL tail, repairing a torn
// tail) and report the recovered engine, exactly as annserve would at
// startup.
//
//	annwal -replay /var/lib/ann/store
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annwal: ")
	var (
		dump   = flag.Bool("dump", false, "print every WAL record")
		verify = flag.Bool("verify", false, "check framing and CRCs of every segment")
		replay = flag.Bool("replay", false, "run full recovery and report the engine state")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: annwal [-dump|-verify|-replay] <store-dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)

	switch {
	case *replay:
		doReplay(dir)
	case *verify:
		doVerify(dir)
	case *dump:
		doScan(dir, true)
	default:
		doScan(dir, false)
	}
}

func doScan(dir string, dump bool) {
	if gens, err := store.Manifest(dir); err == nil {
		for i, g := range gens {
			role := "current"
			if i > 0 {
				role = "previous"
			}
			fmt.Printf("manifest: %s snapshot %s, watermark %d, crc32c %08x, %d bytes\n",
				role, g.Snapshot, g.Watermark, g.CRC, g.Bytes)
		}
	} else {
		fmt.Printf("manifest: %v\n", err)
	}
	var (
		total       int
		first, last uint64
		byKind      [256]int // indexed by the record's type byte
		byPart      = map[int]int{}
	)
	err := store.ScanWAL(dir, func(r store.Record) error {
		if total == 0 {
			first = r.Seq
		}
		last = r.Seq
		total++
		byKind[r.Type]++
		if r.Type.IsUpsert() {
			byPart[r.Part]++
		}
		if dump {
			if r.Type.IsUpsert() {
				fmt.Printf("%8d  %-18s  id=%-12d part=%d level=%d dim=%d", r.Seq, r.Type, r.ID, r.Part, r.Level, len(r.Vec))
			} else {
				fmt.Printf("%8d  %-18s  id=%d", r.Seq, r.Type, r.ID)
			}
			if r.Type.HasTags() {
				fmt.Printf(" tags=%d", len(r.Tags))
			}
			if r.Type.HasText() {
				fmt.Printf(" text=%dB %q", len(r.Text), textPreview(r.Text))
			}
			fmt.Println()
		}
		return nil
	})
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			log.Fatalf("WAL corrupt: %v (a torn final record is repaired on open; run -replay)", ce)
		}
		log.Fatal(err)
	}
	fmt.Printf("wal: %d records (seq %d..%d)", total, first, last)
	sep := ": "
	for t, n := range byKind {
		if n > 0 {
			fmt.Printf("%s%d %s", sep, n, store.RecordType(t))
			sep = ", "
		}
	}
	fmt.Println()
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		fmt.Printf("  partition %d: %d inserts\n", p, byPart[p])
	}
}

// doVerify checks every checksummed artifact of the store — manifest
// envelope, snapshot generations, WAL frames — and reports the first
// corruption per artifact as a machine-checkable line:
//
//	BAD kind=<wal|manifest|snapshot> file=<path> offset=<n> want_crc=<hex> got_crc=<hex> reason=<...>
//
// Exit status 1 on any BAD line, 0 with a summary line otherwise.
func doVerify(dir string) {
	crcTab := crc32.MakeTable(crc32.Castagnoli)
	bad := 0
	badf := func(kind, file string, offset int64, want, got uint32, reason string) {
		bad++
		fmt.Printf("BAD kind=%s file=%s offset=%d want_crc=%08x got_crc=%08x reason=%q\n",
			kind, file, offset, want, got, reason)
	}

	gens, err := store.Manifest(dir)
	var ce *store.CorruptError
	switch {
	case err == nil:
		for _, g := range gens {
			path := filepath.Join(dir, g.Snapshot)
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				badf("snapshot", path, 0, g.CRC, 0, rerr.Error())
				continue
			}
			if g.CRC != 0 {
				if got := crc32.Checksum(b, crcTab); got != g.CRC {
					badf("snapshot", path, 0, g.CRC, got, "snapshot CRC mismatch")
				}
			}
		}
	case errors.As(err, &ce):
		badf("manifest", ce.Path, ce.Offset, ce.WantCRC, ce.GotCRC, ce.Reason)
	default:
		log.Fatal(err)
	}

	n := 0
	if err := store.ScanWAL(dir, func(store.Record) error { n++; return nil }); err != nil {
		ce = nil
		if errors.As(err, &ce) {
			badf("wal", ce.Path, ce.Offset, ce.WantCRC, ce.GotCRC, ce.Reason)
		} else {
			log.Fatal(err)
		}
	}
	if bad > 0 {
		log.Fatalf("FAIL: %d corrupt artifacts (%d good WAL records before the first bad one)", bad, n)
	}
	fmt.Printf("OK: %d generations, %d WAL records, all frames and CRCs valid\n", len(gens), n)
}

// textPreview truncates document text to one short printable line for
// -dump output.
func textPreview(s string) string {
	const max = 32
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

func doReplay(dir string) {
	d, err := store.Open(dir, store.Options{CompactRatio: -1, Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	st := d.Stats()
	e := d.Engine()
	fmt.Printf("recovered: replayed %d records to seq %d (watermark %d)\n", st.Replayed, st.LastSeq, st.Watermark)
	fmt.Printf("engine: %d points, %d partitions, dim %d, %d tombstones\n",
		e.Len(), e.Partitions(), e.Dim(), e.Tombstones())
	fmt.Printf("wal: %d segments, %d bytes on disk\n", st.WALSegments, st.WALDiskBytes)
}
