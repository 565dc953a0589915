package octree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"bettertogether/internal/core"
)

// octreeGolden is, per generator and for stream seqs 0..7 of the
// default 65 536-point frame, the SHA-256 of TotalNodes, Root and every
// node of Result.Nodes[:TotalNodes] (Children, Leaf, Mask), integers
// little-endian.
var octreeGolden = map[string][8]string{
	"uniform": {
		"0e40ee1f1646e9160d52c58a8b54ed0381dbc33371ba467f425e5ea53a6179f4",
		"64e64337835715cae8ac70c7a9b64268edc6eeedcfb942fd5043676fb040bd2e",
		"9e1a8952567d4ef3b86dde662274075b8bffcba6f90e6f5807082f10e06072d0",
		"5d034788504014b2ccf584c5fa4f09093aeae5d686296b5a27f6b87ae8fba799",
		"b3504185bdaf3c920daa2d80a765f3ad75a8587892d0a49bf7047317d36a7c4d",
		"687bf1cee1b66e9eb115dc37afbbdd5641e096a0412ede4389bd9243db458331",
		"288d3d82ca63cc7c483ad554840f0cea652e0f8e1dbad47f12f2f315273aa26f",
		"decfdbf0f06d6c06389000da2116404be0e99ce9034c1196779e835e4ded0095",
	},
	"clustered": {
		"d7f3ac68e4faec403b3b42316df1d3edb6022fd49ad6dcf84dd633c45da357f1",
		"b4b3a22616a24783d705c5d4ceec6a84cd9f67b3d614792abeb5a6f21eabb2f1",
		"2fd69c3f4209c69fc9750f2c697bd13fb9beda22ecee5fc299149b081438f373",
		"213be39c9c861f6a37735e1ea9ed65bff0f0d827b0f332c29bf77bee57f7edd0",
		"12b98d1bd46bdd337b2d0b8b14c24dcaf27377f8b95e3ac26fa5a9edd246074d",
		"32681a85739e20b702d91dedda0afd95bc804a5f267fa265154250e893a89555",
		"eea9fb42900b49e1b99a83452ecf4e2439a9b8fb475f2b6bf307aa3c32a172e4",
		"abc632c36a494591cbd9b10ac2a6abc93d4b55058a795566a39c61acbeaa692f",
	},
	"surface": {
		"4639fb557bf2558499d2a2eebde4237aa01b6bff7f1e814870940a904c17e7cf",
		"19570898260434dfe34ec3b91830ee7e72dfaa5c47c85b15d63cad374e8503d1",
		"89253f9996312886fa4132fe0236d3da0bcc29ffdf3fb60963aa32f6bc715780",
		"439cf6ecec0eadc0712154a83834868071e7b24c890f5926b772a54ca7b32b00",
		"384851202cd5977f9ec0ed05cc8cb88aa8192d21c50f4223eaa85c9405a9e279",
		"7e6633b7bec2a7abd648d709df092186a6b4873deb562477e8d67117fbba5397",
		"18dbaeeaf85515acd67d6707dd2025dfc4889a201b09496076ef4ea8849eed86",
		"53161ce329fcf500027771de1d0f1f13f2bf7a046f005264a454388e56cdf56b",
	},
}

func octreeDigest(t *Task) string {
	h := sha256.New()
	b := binary.LittleEndian.AppendUint32(nil, uint32(t.TotalNodes))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Result.Root))
	for _, n := range t.Result.Nodes[:t.TotalNodes] {
		for _, c := range n.Children {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(n.Leaf))
		b = append(b, n.Mask)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// TestOctreeOutputGolden pins the finished octree of every generator,
// bit for bit, under a serial and a 4-worker ParallelFor, so a kernel
// rewrite must reproduce the committed node arrays exactly.
func TestOctreeOutputGolden(t *testing.T) {
	for _, gen := range []Generator{UniformGen{}, ClusterGen{}, SurfaceGen{}} {
		app := NewApplication(0, gen)
		want := octreeGolden[gen.Name()]
		for _, pc := range []struct {
			name string
			par  core.ParallelFor
		}{{"serial", core.SerialFor}, {"par4", concPar}} {
			t.Run(gen.Name()+"/"+pc.name, func(t *testing.T) {
				to := app.NewTask()
				for seq := range want {
					to.Reset(seq)
					for _, s := range app.Stages {
						s.CPU(to, pc.par)
					}
					if got := octreeDigest(to.Payload.(*Task)); got != want[seq] {
						t.Errorf("seq %d: digest %s, want %s", seq, got, want[seq])
					}
				}
			})
		}
	}
}
