// Fixture: terse-expect. Not compiled — scanned by detlint's golden
// tests only.

pub fn positive(s: &str) -> u32 {
    s.parse().expect("ok")
}

pub fn documented(x: Option<u32>) -> u32 {
    x.expect("caller guarantees Some: the id was validated at parse time")
}

pub fn suppressed(x: Option<u32>) -> u32 {
    // detlint: allow(terse-expect, "fixture: demo of a reasoned suppression on a deliberate abort")
    x.expect("some")
}
