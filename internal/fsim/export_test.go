package fsim

// ImagePages exposes an Image's page count to the external tests.
func ImagePages(im *Image) int { return len(im.pages) }
