package proto

import (
	"reflect"
	"strings"
	"testing"
)

func TestTelemetryUpdateRoundTrip(t *testing.T) {
	in := &TelemetryUpdate{
		HostClock:  123_456_789,
		SubBits:    5,
		QueueDepth: 31,
		Busy:       4,
		Retries:    2,
		Classes: []TelemetryClassDelta{
			{
				Class: PrioLatencySensitive,
				Sum:   1_000_000,
				Max:   90_000,
				Buckets: []TelemetryBucket{
					{Index: 100, Count: 3},
					{Index: 317, Count: 1},
				},
			},
			{
				Class:   PrioThroughputCritical,
				Sum:     5_500_000,
				Max:     2_000_000,
				Buckets: []TelemetryBucket{{Index: 512, Count: 40}},
			},
		},
	}
	out := roundTrip(t, in).(*TelemetryUpdate)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestTelemetryUpdateEmpty(t *testing.T) {
	in := &TelemetryUpdate{HostClock: 42, SubBits: 5, QueueDepth: 0}
	out := roundTrip(t, in).(*TelemetryUpdate)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestTelemetryUpdateTruncationDetected(t *testing.T) {
	in := &TelemetryUpdate{
		HostClock: 1, SubBits: 5,
		Classes: []TelemetryClassDelta{{
			Class:   PrioLatencySensitive,
			Buckets: []TelemetryBucket{{Index: 1, Count: 1}, {Index: 2, Count: 2}},
		}},
	}
	buf := Marshal(in)
	// Chop off the last bucket but keep the header honest about length.
	short := buf[:len(buf)-tuBucketSize]
	var p TelemetryUpdate
	if err := p.decodeBody(short[chSize:]); err == nil {
		t.Fatal("decodeBody accepted a truncated bucket list")
	}
	// Trailing garbage is rejected too.
	long := append(append([]byte(nil), buf...), 0xff, 0xff)
	if err := p.decodeBody(long[chSize:]); err == nil {
		t.Fatal("decodeBody accepted trailing bytes")
	}
}

func TestTelemetryAckRoundTrip(t *testing.T) {
	in := &TelemetryAck{EchoHostClock: -5, TargetClock: 987_654_321}
	out := roundTrip(t, in).(*TelemetryAck)
	if *out != *in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// TestTelemetryTypesPastDiscovery pins the type-code allocation: telemetry
// PDUs sit past the core range (0x00–0x07) and the retired discovery
// codes (0x08–0x0A). Those three are not free: the cluster control plane
// left the wire, and a peer still sending one must be refused, so no new
// PDU may take them and the telemetry codes must not move into them.
func TestTelemetryTypesPastDiscovery(t *testing.T) {
	if TypeTelemetryUpdate != 0x0B || TypeTelemetryAck != 0x0C {
		t.Fatalf("telemetry PDU types moved: update=0x%02x ack=0x%02x",
			uint8(TypeTelemetryUpdate), uint8(TypeTelemetryAck))
	}
	for typ := Type(0x08); typ <= 0x0A; typ++ {
		if p, err := newPDU(typ); err == nil {
			t.Fatalf("retired type 0x%02x decodes as %T", uint8(typ), p)
		}
	}
	for _, typ := range []Type{TypeTelemetryUpdate, TypeTelemetryAck} {
		if strings.HasPrefix(typ.String(), "Type(") {
			t.Fatalf("type 0x%02x has no String case", uint8(typ))
		}
	}
}
