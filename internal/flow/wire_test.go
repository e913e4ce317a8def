package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fold3d/internal/pipeline"
)

// TestBlockWireEntryPinned pins the exact disk/peer wire bytes of two
// implemented blocks' cache entries. Entries already spilled to disk or
// served by fleet peers decode through these bytes, so a refactor of the
// in-memory artifact must leave them unchanged; a deliberate layout change
// bumps blockCodecVersion and updates the hashes here.
func TestBlockWireEntryPinned(t *testing.T) {
	cases := []struct {
		block string
		size  int
		sum   string
	}{
		{"L2T0", 34719, "21b3bd36fb7e92270d42bf8f454e17263c952bedf8145da5a89cdb03fd5a5c40"},
		{"CCX", 83567, "8733a76f50d2a98a308863603de51ac5ec96626c018c3c4d22f93d1dcf4d6ec1"},
	}
	for _, tc := range cases {
		t.Run(tc.block, func(t *testing.T) {
			d, f := genBlocks(t, tc.block)
			res, err := f.ImplementBlock(d.Blocks[tc.block], d.Specs[tc.block].Aspect)
			if err != nil {
				t.Fatal(err)
			}
			entry := blockEntry(t, f, res)
			sum := sha256.Sum256(entry)
			if got := hex.EncodeToString(sum[:]); got != tc.sum || len(entry) != tc.size {
				t.Errorf("wire entry = %s (%d bytes), want %s (%d bytes)", got, len(entry), tc.sum, tc.size)
			}
		})
	}
}

// blockEntry encodes an implemented block's cache entry the way the block
// plan captures and spills it. Its bytes cover the netlist with every
// position and die, the stats, power, timing and CTS reports, so equal
// entries mean byte-identical implementations.
func blockEntry(t *testing.T, f *Flow, res *BlockResult) []byte {
	t.Helper()
	st := &implState{f: f, b: res.Block, res: res}
	art, err := st.artifactSpec().Capture()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := pipeline.EncodeEntry(art, f.blockCodec())
	if err != nil {
		t.Fatal(err)
	}
	return entry
}
