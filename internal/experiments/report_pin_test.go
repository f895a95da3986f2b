package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/repo"
)

// reportDigests pins every registered experiment's report at tiny(): the
// sha256 of its Lines and of its Series' float bits in sorted key order.
// table3 is left out because it reports wall-clock stage timings.
// Floating-point contraction differs across architectures, so the literals
// are only asserted on amd64.
var reportDigests = map[string]string{
	"ablation-acquisition": "c932f3b537f6f84070fc06868446e5070ae06bf8ec03c3660795034b3ac2d608",
	"ablation-variance":    "a183e3208ef9c379dc6369adc092a7d9ee4e288d84db7f23be46b1aba29b3096",
	"ablation-weights":     "1804b2e0fccf035b33af4ff513225a8ccec11a0983f3b492163e25d4df0fe88c",
	"drift":                "b0fc42751195ed001210edc76c7c6f4e567c6204dc18948a459661cfe3766c05",
	"fig1":                 "a32c1f7846c6c7c8484efbf7795da6ec11487735ce16c1c536f7522785536d51",
	"fig3":                 "ff436f1196a90305e6cfb1ce6756a3dfdbce90a2aa98402a84f39511853b7aff",
	"fig4":                 "98c506437fc2996d37abd8fe13c74ff57ab9dbca1f1e45cc9b74e2d8b77ec83d",
	"fig5":                 "ba46d2ba9a516949c1081e2860acb87a6699cebcf3d47febf7fab62aa44bf1d5",
	"fig6":                 "db14800a7f6cca6c89712726d888492f0a31ea16875b073fb74fca47bceacc4d",
	"fig7":                 "65adfbc206841ecda8805433a333c3afaa7c0081fbd49f4b908947ed5fb2ade7",
	"fig8":                 "0dbd69b8fd28b1775380dba7ee9a93d754d83189d0009654265368bb76b8e88c",
	"fig9":                 "2be5958e08158518b2f822829a91bf146712b3ab4de1ad0999aed59c3accd85f",
	"table4":               "3409337f9f7827275a4021f7116ba9f821252c512f98603d8c3313d90d7e99b0",
	"table5":               "8efa8cae10376bf7cd4894b555a15b8fa416a9e272f1e43beeaf1780f06aa21d",
	"table6":               "4315e942226b3b17acc0c87ffd8c59044350e8dadc35f7e0680d81770bbf86be",
	"table7":               "3d3945a19099844b22939fb6a5e055e5bc7f78724dc1f0d12f8017e4364fd53d",
	"table8":               "28cecb47762b5cd7ae4066c0082ac165f42bc25debea7f91e6a9e3113b42375d",
	"table9":               "56d78fb730a8f934f96a3d10abaa472413d99bc0334f3e97881bcd828f9da709",
}

// reportDigest hashes a report's lines, then each series name and the
// IEEE-754 bits of its values, series sorted by name.
func reportDigest(r *Report) string {
	h := sha256.New()
	for _, l := range r.Lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	keys := make([]string, 0, len(r.Series))
	for k := range r.Series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		for _, v := range r.Series[k] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReportsPinned runs every experiment except table3 at tiny() under
// GOMAXPROCS 1 and 8 and holds each report to its recorded digest. The
// repository cache is emptied before each pass, so both passes build their
// repositories at their own parallelism.
func TestReportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		repoMu.Lock()
		repoCache = map[repoKey]*repo.Repository{}
		repoMu.Unlock()
		for _, id := range IDs() {
			if id == "table3" {
				continue
			}
			r, err := Run(id, tiny())
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, id, err)
			}
			if got, want := reportDigest(r), reportDigests[id]; got != want {
				t.Errorf("GOMAXPROCS=%d %s: report digest %s, want %s", procs, id, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
