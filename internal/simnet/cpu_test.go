package simnet

import "testing"

func testCPUCfg() CPUConfig {
	return CPUConfig{
		RxPDU:        400,
		TxPDU:        500,
		SmallTxExtra: 2000,
		RxSmallExtra: 1500,
		PerByte:      0.05,
		SubmitOp:     300,
	}
}

func TestCPUConfigValidate(t *testing.T) {
	if err := testCPUCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (CPUConfig{RxPDU: -1}).Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestCPUExecSerializes(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "t", testCPUCfg())
	var done []Time
	c.Exec(100, func() { done = append(done, e.Now()) })
	c.Exec(100, func() { done = append(done, e.Now()) })
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 200 {
		t.Fatalf("done = %v", done)
	}
}

func TestCPUIdleGap(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "t", testCPUCfg())
	var second Time
	c.Exec(100, nil)
	e.Schedule(1000, func() {
		c.Exec(50, func() { second = e.Now() })
	})
	e.Run()
	if second != 1050 {
		t.Fatalf("second = %d, want 1050 (no carryover of idle time)", second)
	}
}

func TestCPUNegativeCostClamped(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "t", testCPUCfg())
	at := c.Exec(-5, nil)
	if at != 0 {
		t.Fatalf("negative cost not clamped: %d", at)
	}
}

func TestCPUCostModel(t *testing.T) {
	e := NewEngine()
	c := NewCPU(e, "t", testCPUCfg())
	if got := c.RxCost(0, false); got != 400 {
		t.Errorf("RxCost(0) = %d", got)
	}
	if got := c.RxCost(4096, false); got != 400+204 {
		t.Errorf("RxCost(4096) = %d", got)
	}
	if got := c.RxCost(0, true); got != 400+1500 {
		t.Errorf("RxCost(0, standalone) = %d", got)
	}
	// Standalone tx pays the surcharge; batched submission-path tx does
	// not.
	if got := c.TxCost(0, true); got != 500+2000 {
		t.Errorf("TxCost(0, standalone) = %d", got)
	}
	if got := c.TxCost(0, false); got != 500 {
		t.Errorf("TxCost(0, batched) = %d", got)
	}
	if got := c.TxCost(4096, false); got != 500+204 {
		t.Errorf("TxCost(4096, batched) = %d", got)
	}
	if got := c.TxCost(4096, true); got != 500+204+2000 {
		t.Errorf("TxCost(4096, standalone) = %d", got)
	}
	if c.SubmitCost() != 300 {
		t.Errorf("SubmitCost = %d", c.SubmitCost())
	}
}
