package netrun

import (
	"encoding/gob"

	"mdst/internal/core"
)

// Gob needs the concrete message types behind the sim.Message interface
// registered once per process. Both exchanges' wire formats are
// registered so a cluster can run either.
func init() {
	gob.Register(core.InfoMsg{})
	gob.Register(&core.SearchMsg{}) // tokens travel by pointer
	gob.Register(core.ReverseMsg{})
	gob.Register(core.DeblockMsg{})
	gob.Register(core.UpdateDistMsg{})
	gob.Register(core.RemoveMsg{})
	gob.Register(core.BackMsg{})
	gob.Register(core.ReverseAuxMsg{})
}
