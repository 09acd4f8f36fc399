// Fixture: suppression-syntax. Reasonless or malformed suppressions are
// diagnostics themselves. Not compiled — scanned by detlint's golden
// tests only.

// detlint: allow(terse-expect)
pub fn missing_reason() {}

// detlint: allow(terse-expect, "")
pub fn empty_reason() {}

// detlint: deny(everything)
pub fn wrong_verb() {}
