_start:
	ld a0, a1
