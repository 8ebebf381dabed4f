package page

// formatData initialises data in place as an empty page of type t and
// returns the view.
func formatData(data []byte, t Type) *Page {
	clear(data)
	p := &Page{data: data}
	p.format(t)
	return p
}

// wrap views bytes the page owns: its mutators write them in place.
func wrap(data []byte) *Page { return &Page{data: data} }
