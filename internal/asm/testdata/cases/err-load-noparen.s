_start:
	ld a0, 8)
