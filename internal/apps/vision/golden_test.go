package vision

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"bettertogether/internal/core"
)

// visionGolden is, for stream seqs 0..15 of the default 256×256 frame,
// the SHA-256 of the Denoised, Gray, Grad, Eq and Out planes in that
// order, each value as its little-endian float32 bits.
var visionGolden = [...]string{
	"f6fb99ad1728e6522fafece35736ebd2cbedca48e81deedcafa652d6e7e59010",
	"9e871f83e838ad18f3aff51282282440ca847beceee7c62bc94ebfb1956c1b93",
	"065873fb004539b0c6609963fb73db4ea60a58db8a954569210a6ad8eca7c728",
	"ee4cbed65b5fa7102e19d873add4801944080d57dbb878687f2d73b7d04bd497",
	"2bf0a69f63603d6e32ba49076cbf1cf09e6ad41c7019a80d0b6a794db64a2220",
	"abb258122110df7ab3d061736998c658e00ca7ae0459f05350556c4ac38e4b79",
	"30cc19d49823fa77089ad1e63040e2b9ed40ae0b6f0222b966429b5c4645105c",
	"dbeed952cefde6216fed552757cc594846a6f721c045873fcefc1c5c0024e9d1",
	"0189375574b4f8a8e313e7fe84551595b8e297bc058cde7ab6b7b52fe79fd12d",
	"c353952e456f7b18125c9a6a06d1bfc5cae9f649c392c495c5496ab4e01e92bc",
	"149315edb936153956534440075c574cdb773192a2e36ce2c6052f5d8876292b",
	"096749c25422845fd9ab35d9a857a3617d051047b0d13f116f3a36700c44f066",
	"77c7448722d95c548e1aeb491224f6ec415b3899f310393d663d91ecab779698",
	"0135012685151ae44c4848f9956ef25994fd744ffc8e1cb29982640d82246355",
	"d7a20b6dd9d142fa0b652751426633376adadbec3603ce2a32c185729b5bc490",
	"68a0ea62162ab268bbd452e62011e4b1088570129cac79dc683f3ae804a94442",
}

func visionDigest(t *Task) string {
	h := sha256.New()
	var b [4]byte
	for _, buf := range [][]float32{t.Denoised.Data, t.Gray.Data, t.Grad.Data, t.Eq.Data, t.Out.Data} {
		for _, v := range buf {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestVisionOutputGolden pins every derived plane of the default frame,
// bit for bit, under a serial and a 4-worker ParallelFor, so a kernel
// rewrite must reproduce the committed outputs exactly.
func TestVisionOutputGolden(t *testing.T) {
	app, err := NewApplication(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		par  core.ParallelFor
	}{{"serial", core.SerialFor}, {"par4", concPar}} {
		t.Run(pc.name, func(t *testing.T) {
			to := app.NewTask()
			for seq, want := range visionGolden {
				to.Reset(seq)
				for _, s := range app.Stages {
					s.CPU(to, pc.par)
				}
				if got := visionDigest(Unwrap(to.Payload)); got != want {
					t.Errorf("seq %d: digest %s, want %s", seq, got, want)
				}
			}
		})
	}
}
