package tc

// SetEndAppendedHook installs fn between a transaction's end-record
// append and its removal from the active table (see TC.endAppended).
func SetEndAppendedHook(t *TC, fn func()) { t.endAppended = fn }
