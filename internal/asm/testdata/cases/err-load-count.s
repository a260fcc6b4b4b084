_start:
	ld a0
